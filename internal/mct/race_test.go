//go:build race

package mct

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts
// at random, so pooled paths are not allocation-free there.
const raceEnabled = true
