// Package asciiplot renders time-sequence diagrams and event-series square
// waves as text — the repo's stand-in for the paper's BGPlot/SCNMPlot
// visualizer (Table VI), good enough to eyeball a transfer's gaps,
// retransmissions, and derived series in a terminal (paper Fig 11).
package asciiplot

import (
	"fmt"
	"io"
	"strings"

	"tdat/internal/flows"
	"tdat/internal/timerange"
)

// Row is one labeled series lane.
type Row struct {
	Label string
	Set   *timerange.Set
}

// Series renders each row as a square-wave lane over span: '█' covered,
// '·' uncovered. width is the number of time buckets (default 100).
func Series(w io.Writer, span timerange.Range, rows []Row, width int) error {
	if width <= 0 {
		width = 100
	}
	if span.Empty() {
		_, err := fmt.Fprintln(w, "(empty span)")
		return err
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	for _, r := range rows {
		var b strings.Builder
		fmt.Fprintf(&b, "%-*s ", labelW, r.Label)
		for i := 0; i < width; i++ {
			bs := span.Start + span.Len()*timerange.Micros(i)/timerange.Micros(width)
			be := span.Start + span.Len()*timerange.Micros(i+1)/timerange.Micros(width)
			if be <= bs {
				be = bs + 1
			}
			if len(r.Set.Query(timerange.R(bs, be))) > 0 {
				b.WriteRune('█')
			} else {
				b.WriteRune('·')
			}
		}
		ratio := float64(r.Set.Intersect(timerange.NewSet(span)).Size()) / float64(span.Len())
		fmt.Fprintf(&b, " %5.1f%%", ratio*100)
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return axis(w, span, labelW, width)
}

// TimeSequence renders the classic tcptrace-style plot: sequence offset on
// the Y axis, time on the X axis. Marks: '.' new data, 'R' retransmission,
// 'o' out-of-sequence fill, '~' reordered, 'a' cumulative ACK.
func TimeSequence(w io.Writer, c *flows.Connection, width, height int) error {
	if width <= 0 {
		width = 100
	}
	if height <= 0 {
		height = 20
	}
	span := c.Span()
	var maxSeq int64
	for _, d := range c.Data {
		if d.SeqEnd > maxSeq {
			maxSeq = d.SeqEnd
		}
	}
	if maxSeq == 0 || span.Empty() {
		_, err := fmt.Fprintln(w, "(no data packets)")
		return err
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	put := func(t timerange.Micros, seq int64, mark rune, override bool) {
		x := int(int64(t-span.Start) * int64(width) / int64(span.Len()))
		y := height - 1 - int(seq*int64(height)/(maxSeq+1))
		if x < 0 || x >= width || y < 0 || y >= height {
			return
		}
		if override || grid[y][x] == ' ' || grid[y][x] == 'a' {
			grid[y][x] = mark
		}
	}
	for _, a := range c.Acks {
		if a.Ack > 0 {
			put(a.Time, a.Ack, 'a', false)
		}
	}
	for _, d := range c.Data {
		mark := '.'
		override := false
		switch d.Kind {
		case flows.DataRetransmit:
			mark, override = 'R', true
		case flows.DataGapFill:
			mark, override = 'o', true
		case flows.DataReordered:
			mark, override = '~', true
		}
		put(d.Time, d.Seq, mark, override)
	}
	for _, line := range grid {
		if _, err := fmt.Fprintln(w, string(line)); err != nil {
			return err
		}
	}
	if err := axis(w, span, -1, width); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "marks: '.' data  'R' retransmit  'o' gap fill  '~' reordered  'a' ack")
	return err
}

// axis prints a time axis in seconds under a plot of the given width.
func axis(w io.Writer, span timerange.Range, labelW, width int) error {
	pad := ""
	if labelW >= 0 {
		pad = strings.Repeat(" ", labelW+1)
	}
	startS := float64(span.Start) / 1e6
	endS := float64(span.End) / 1e6
	mid := (startS + endS) / 2
	line := fmt.Sprintf("%-*.2f%*.2f%*.2f", width/3, startS, width/3, mid, width/3, endS)
	_, err := fmt.Fprintf(w, "%s%s (s)\n", pad, line)
	return err
}
