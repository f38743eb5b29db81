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
