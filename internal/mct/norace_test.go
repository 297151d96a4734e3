//go:build !race

package mct

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
