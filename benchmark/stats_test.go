package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {10, 0}, {19, 0}, {20, 50}, {37, 50}, {38, 75}, {100, 90}, {199, 95},
		{200, 95}, {901, 95}, {902, 99}, {1000, 99}, {9999, 99.9}, {100000, 99.99},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailPercentileCapsAt99(t *testing.T) {
	if got := tailPercentile(1_000_000); got != 99 {
		t.Errorf("tailPercentile(1e6) = %v, want 99", got)
	}
	if got := tailPercentile(500); got != 95 {
		t.Errorf("tailPercentile(500) = %v, want 95 (p99 over 500 samples rests on 5 values)", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestSummarizeReportsSampleAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	d := summarize(xs)
	if d.N != 1000 || d.TailPct != 99 || d.P50 != 500.5 || d.Max != 1000 {
		t.Errorf("summarize = %+v", d)
	}
	if math.Abs(d.Tail-990.01) > 1e-9 {
		t.Errorf("p99 = %v, want 990.01", d.Tail)
	}
}

func TestWindowedTakesMedianOverWindows(t *testing.T) {
	// Five windows of 1000 samples; one has a stall that lifts its tail.
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if w == 2 && i%10 == 0 {
				v = 100 // a tenth of the window stalls
			}
			xs = append(xs, v)
		}
	}
	d := windowed(xs, 5)
	if d.Tail != 1 || d.P50 != 1 || d.N != 5000 || d.TailPct != 99 {
		t.Errorf("windowed = %+v, want tail 1 from the four clean windows", d)
	}
	whole := summarize(append([]float64(nil), xs...))
	if whole.Tail != 100 {
		t.Errorf("whole-sample p99 = %v, want the stall's 100", whole.Tail)
	}
	if d := windowed([]float64{3}, 5); d.P50 != 3 {
		t.Errorf("windowed over fewer samples than windows = %+v", d)
	}
}

func TestQErrorMatchesInternalStats(t *testing.T) {
	for _, c := range [][2]float64{
		{0, 0}, {0, 1}, {1, 0}, {0.5, 0}, {0, 7}, {7, 0}, {3, 3}, {2.5, 10}, {10, 2.5},
		{1e9, 1}, {0.2, 0.9}, {123.456, 789}, {1, 1e12},
	} {
		e, f := c[0], c[1]
		if got, want := qError(e, f), stats.QError(e, f); got != want {
			t.Errorf("qError(%v, %v) = %v, internal/stats.QError = %v", e, f, got, want)
		}
	}
}

func TestErrRateMatchesInternalStats(t *testing.T) {
	for _, c := range [][2]float64{{0, 0}, {0, 5}, {5, 0}, {3, 4}, {4, 3}, {2.5, 2.5}, {1e6, 1}} {
		e, f := c[0], c[1]
		if got, want := errRate(e, f), math.Abs(stats.Err(e, f)); got != want {
			t.Errorf("errRate(%v, %v) = %v, |internal/stats.Err| = %v", e, f, got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		span     interval
		children []interval
		want     int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"one child", interval{0, 100}, []interval{{10, 30}}, 80},
		{"disjoint children", interval{0, 100}, []interval{{10, 30}, {50, 60}}, 70},
		// Parallel workers: overlapping children count once.
		{"overlapping children", interval{0, 100}, []interval{{10, 50}, {20, 60}, {30, 40}}, 50},
		{"touching children", interval{0, 100}, []interval{{10, 20}, {20, 30}}, 80},
		// A child sticking out of its parent counts only inside it.
		{"child past the end", interval{0, 100}, []interval{{90, 150}}, 90},
		{"child before the start", interval{50, 100}, []interval{{0, 60}}, 40},
		{"child outside", interval{50, 100}, []interval{{0, 10}, {200, 300}}, 50},
		{"fully covered", interval{0, 100}, []interval{{0, 60}, {40, 100}}, 0},
		{"unsorted children", interval{0, 100}, []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
	} {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPlanSegmentsFollowExecutionOrder(t *testing.T) {
	p := []int{0, 1, 2, 3}
	render := func(s int) string {
		var parts []string
		for _, seg := range planSegments(p, s) {
			var b strings.Builder
			for _, l := range seg {
				b.WriteByte(byte('a' + l))
			}
			parts = append(parts, b.String())
		}
		return strings.Join(parts, " ")
	}
	for s, want := range []string{"a ab abc", "b bc bcd", "c cd bcd", "d cd bcd"} {
		if got := render(s); got != want {
			t.Errorf("start %d: segments %q, want %q", s, got, want)
		}
	}
}

func TestPatternExpansions(t *testing.T) {
	for _, c := range []struct {
		pattern string
		want    int
	}{
		{"a", 1}, {"a/b", 1}, {"*", 8}, {"*/a", 8}, {"(a|b)/c", 2}, {"a|b|c", 3},
		{"a?/b", 2}, {"a{2}", 1}, {"(a|b){2}", 4}, {"(a|b){1,2}", 6}, {"*{0,2}/a", 73},
		{"*/*/*", 17}, // saturates at limit+1
	} {
		if got := patternExpansions(c.pattern, 8, 16); got != min(c.want, 17) {
			t.Errorf("patternExpansions(%q) = %d, want %d", c.pattern, got, min(c.want, 17))
		}
	}
}

func TestDomainSize(t *testing.T) {
	if got := domainSize(8, 5); got != 8+64+512+4096+32768 {
		t.Errorf("domainSize(8, 5) = %d", got)
	}
}
