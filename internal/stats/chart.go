package stats

import (
	"fmt"
	"strings"
)

// Bar is one labelled value of an ASCII bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders a horizontal ASCII bar chart, scaled so the longest
// bar spans width characters. It is how cmd/sweep approximates the
// paper's bar figures in a terminal.
func BarChart(title string, bars []Bar, width int) string {
	if width <= 0 {
		width = 50
	}
	var top float64
	labelW := 0
	for _, b := range bars {
		if b.Value > top {
			top = b.Value
		}
		labelW = max(labelW, len(b.Label))
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "-- %s --\n", title)
	}
	for _, b := range bars {
		n := 0
		if top > 0 {
			n = int(b.Value / top * float64(width))
		}
		if b.Value > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&sb, "%-*s | %-*s %.3f\n", labelW, b.Label, width, strings.Repeat("#", n), b.Value)
	}
	return sb.String()
}

// sparkLevels are the eight block glyphs of a sparkline, lowest first.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as one line of block glyphs scaled from
// zero to the series maximum. When the series is longer than width the
// values are averaged into width equal buckets; width <= 0 means no
// downsampling. An empty or all-zero series renders as minimum-level
// glyphs so the line keeps its length.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width > 0 && len(values) > width {
		down := make([]float64, width)
		for i := range down {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			var sum float64
			for _, v := range values[lo:hi] {
				sum += v
			}
			down[i] = sum / float64(hi-lo)
		}
		values = down
	}
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		lvl := 0
		if max > 0 && v > 0 {
			lvl = int(v / max * float64(len(sparkLevels)-1))
			if lvl < 0 {
				lvl = 0
			}
		}
		sb.WriteRune(sparkLevels[lvl])
	}
	return sb.String()
}
