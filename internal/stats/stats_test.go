package stats

import (
	"strings"
	"testing"
)

func TestHelpers(t *testing.T) {
	if Mega(2_500_000) != 2.5 {
		t.Errorf("Mega = %v", Mega(2_500_000))
	}
	if Percent(25, 100) != 25 {
		t.Errorf("Percent = %v", Percent(25, 100))
	}
	if Percent(1, 0) != 0 {
		t.Errorf("Percent with zero whole = %v", Percent(1, 0))
	}
	if Ratio(6, 3) != 2 {
		t.Errorf("Ratio = %v", Ratio(6, 3))
	}
	if Ratio(1, 0) != 0 {
		t.Errorf("Ratio with zero denominator = %v", Ratio(1, 0))
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("x", 1)
	tb.AddRow("longer-name", 3.14159)
	out := tb.Render()
	for _, want := range []string{"== demo ==", "name", "value", "longer-name", "3.142"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines", len(lines))
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, "x")
	got := tb.CSV()
	want := "a,b\n1,x\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	// RFC 4180: cells containing commas, quotes, or line breaks must be
	// quoted (with embedded quotes doubled) or the row structure breaks.
	tb := NewTable("demo", "label", "note")
	tb.AddRow("ocean, 16 cpus", `said "fast"`)
	tb.AddRow("multi\nline", "plain")
	got := tb.CSV()
	want := "label,note\n" +
		`"ocean, 16 cpus","said ""fast"""` + "\n" +
		"\"multi\nline\",plain\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
	// Unquoted cells stay verbatim — existing output is unchanged.
	plain := NewTable("", "a", "b")
	plain.AddRow(1, "x")
	if plain.CSV() != "a,b\n1,x\n" {
		t.Fatalf("plain CSV changed: %q", plain.CSV())
	}
}

func TestTableFloat32Formatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(float32(1.5))
	if got := tb.Rows()[0][0]; got != "1.500" {
		t.Fatalf("float32 cell = %q", got)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("demo", []Bar{
		{Label: "a", Value: 10},
		{Label: "bb", Value: 5},
		{Label: "c", Value: 0},
	}, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 20)) {
		t.Fatalf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[2], "#") != 10 {
		t.Fatalf("half bar wrong: %q", lines[2])
	}
	if strings.Contains(lines[3], "#") {
		t.Fatalf("zero bar drawn: %q", lines[3])
	}
}

func TestBarChartTinyValuesVisible(t *testing.T) {
	out := BarChart("", []Bar{{Label: "big", Value: 1000}, {Label: "tiny", Value: 0.1}}, 30)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tiny") && !strings.Contains(line, "#") {
			t.Fatal("non-zero value rendered with no bar")
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := uint64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 || h.Max() != 100 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Power-of-two buckets: the p50 upper bound must be >= the true
	// median and <= 2x it.
	p50 := h.Percentile(50)
	if p50 < 50 || p50 > 100 {
		t.Fatalf("p50 bound = %d", p50)
	}
	if h.Percentile(100) != 100 {
		t.Fatalf("p100 = %d", h.Percentile(100))
	}
}

func TestHistogramZeroAndHuge(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(1 << 50)
	if h.Percentile(0) != 0 {
		t.Fatalf("p0 = %d", h.Percentile(0))
	}
	if h.Percentile(99) != 1<<50 {
		t.Fatalf("p99 = %d", h.Percentile(99))
	}
}

func TestHistogramEmptyPercentiles(t *testing.T) {
	var h Histogram
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty p%v = %d, want 0", p, got)
		}
	}
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram has non-zero aggregates")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(42)
	// Every percentile of a one-sample histogram is the sample itself:
	// the bucket's power-of-two upper bound is clamped to the max.
	for _, p := range []float64{0, 1, 50, 95, 99, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Errorf("p%v = %d, want 42 (clamped to max)", p, got)
		}
	}
	if h.Mean() != 42 || h.Max() != 42 {
		t.Fatalf("mean=%v max=%d", h.Mean(), h.Max())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	// Values beyond the last power-of-two bucket all land in the
	// overflow bucket; percentile bounds there must report the true max
	// rather than a meaningless power of two.
	var h Histogram
	h.Record(1<<62 + 12345)
	h.Record(1 << 63)
	if got := h.Percentile(99); got != 1<<63 {
		t.Fatalf("overflow p99 = %d, want max %d", got, uint64(1)<<63)
	}
	if got := h.Percentile(50); got != 1<<63 {
		t.Fatalf("overflow p50 = %d, want max", got)
	}
}

func TestBarChartDefaultWidth(t *testing.T) {
	// Zero and negative widths fall back to the default rather than
	// producing empty or panicking output.
	for _, w := range []int{0, -5} {
		out := BarChart("t", []Bar{{Label: "a", Value: 2}}, w)
		if !strings.Contains(out, strings.Repeat("#", 50)) {
			t.Fatalf("width %d: max bar not default-width:\n%s", w, out)
		}
	}
}

func TestBarChartAllZero(t *testing.T) {
	out := BarChart("z", []Bar{{Label: "a", Value: 0}, {Label: "b", Value: 0}}, 20)
	if strings.Contains(out, "#") {
		t.Fatalf("all-zero chart drew bars:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // title + two rows
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty series must render empty")
	}
	out := Sparkline([]float64{0, 1, 2, 4}, 0)
	if got := len([]rune(out)); got != 4 {
		t.Fatalf("rendered %d glyphs, want 4", got)
	}
	runes := []rune(out)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("scaling wrong: %q", out)
	}
	// All-zero series keeps its length at the minimum level.
	flat := []rune(Sparkline([]float64{0, 0, 0}, 0))
	if len(flat) != 3 || flat[0] != '▁' || flat[2] != '▁' {
		t.Fatalf("flat series = %q", string(flat))
	}
	// Negative values clamp to the lowest glyph instead of indexing out
	// of range.
	neg := []rune(Sparkline([]float64{-5, 10}, 0))
	if neg[0] != '▁' {
		t.Fatalf("negative value = %q", string(neg))
	}
}

func TestSparklineDownsample(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	out := []rune(Sparkline(series, 10))
	if len(out) != 10 {
		t.Fatalf("downsampled to %d glyphs, want 10", len(out))
	}
	if out[0] != '▁' || out[9] != '█' {
		t.Fatalf("monotone series lost its shape: %q", string(out))
	}
	// Shorter than the budget: untouched.
	if got := len([]rune(Sparkline([]float64{1, 2}, 10))); got != 2 {
		t.Fatalf("short series resampled to %d", got)
	}
}
