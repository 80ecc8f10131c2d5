package main

// Pure helpers behind every reported number: percentile selection, the
// paper's accuracy metrics and span self-time. They take plain values
// and touch no clock, so the unit tests pin them exactly.

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a percentile needs beyond it before
// it is reported: a p99 over 500 samples rests on five values and reads
// as noise.
const minBeyond = 10

// percentileLadder lists the tail percentiles a summary may report, from
// the highest down.
var percentileLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// highestSupported returns the highest percentile of percentileLadder
// that has at least minBeyond of n samples beyond the lower of the two
// ranks it interpolates between, or 0 when even the median is
// unsupported.
func highestSupported(n int) float64 {
	for _, p := range percentileLadder {
		if n > 0 && n-1-int(math.Floor(p/100*float64(n-1)+1e-9)) >= minBeyond {
			return p
		}
	}
	return 0
}

// tailPercentile is the percentile a "p99" metric reports over n samples:
// 99 when the sample supports it, else the highest one it does support.
// The sample count is printed beside every tail so a lowered tail shows.
func tailPercentile(n int) float64 {
	return math.Min(99, highestSupported(n))
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of an
// ascending-sorted sample by linear interpolation between the two
// nearest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// dist is a latency sample with its summary.
type dist struct {
	N        int
	P50      float64
	P90      float64
	Tail     float64 // at TailPct, see tailPercentile
	TailPct  float64
	Max      float64
	Supports float64 // highestSupported(N)
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), TailPct: tailPercentile(len(xs)), Supports: highestSupported(len(xs))}
	if len(xs) == 0 {
		return d
	}
	d.P50 = percentile(xs, 50)
	d.P90 = percentile(xs, 90)
	d.Tail = percentile(xs, d.TailPct)
	d.Max = xs[len(xs)-1]
	return d
}

// windowed splits a sample, in the order it was taken, into windows
// consecutive equal parts and returns the median over the parts of each
// part's summary: one stall then moves one window's tail, not the
// reported one. The returned dist's N is the whole sample's size and its
// TailPct the percentile each window supports.
func windowed(xs []float64, windows int) dist {
	windows = max(1, min(windows, len(xs)))
	size := len(xs) / windows
	var p50s, p90s, tails []float64
	tailPct := 99.0
	for w := 0; w < windows; w++ {
		part := append([]float64(nil), xs[w*size:(w+1)*size]...)
		d := summarize(part)
		p50s = append(p50s, d.P50)
		p90s = append(p90s, d.P90)
		tails = append(tails, d.Tail)
		tailPct = math.Min(tailPct, d.TailPct)
	}
	all := summarize(append([]float64(nil), xs...))
	all.P50, all.P90, all.Tail, all.TailPct = median(p50s), median(p90s), median(tails), tailPct
	return all
}

// windowedRate is the throughput of one closed-loop caller whose
// back-to-back operations took latMs each and did perOp units of work:
// the median over windows consecutive parts of units per second.
func windowedRate(latMs []float64, perOp float64, windows int) float64 {
	windows = max(1, min(windows, len(latMs)))
	size := len(latMs) / windows
	rates := make([]float64, windows)
	for w := range rates {
		var ms float64
		for _, x := range latMs[w*size : (w+1)*size] {
			ms += x
		}
		rates[w] = float64(size) * perOp / (ms / 1e3)
	}
	return median(rates)
}

// median returns the median of xs (sorting a copy); NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// qError is the paper's +1-smoothed q-error max(e/f, f/e), with values
// below one lifted to one so an exact zero scores 1 — the definition of
// internal/stats.QError, restated here so the benchmark checks the
// program's numbers rather than reusing its code.
func qError(e, f float64) float64 {
	e, f = math.Max(e, 1), math.Max(f, 1)
	return math.Max(e/f, f/e)
}

// errRate is |err(ℓ)| of the paper's Eq. 6: 0 when e == f, otherwise
// |e − f| / max(e, f).
func errRate(e, f float64) float64 {
	if e == f {
		return 0
	}
	m := math.Max(e, f)
	if m == 0 {
		m = math.Max(math.Abs(e), math.Abs(f))
	}
	return math.Abs(e-f) / m
}

// interval is a half-open time interval [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the part of it covered by the
// union of its children. Children may overlap each other (parallel
// workers) and may stick out of the parent; only the covered part inside
// the parent counts, and overlapping coverage counts once.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, span.Start)
		c.End = min(c.End, span.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered int64
	var cur interval
	open := false
	for _, c := range cs {
		switch {
		case !open:
			cur, open = c, true
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if open {
		covered += cur.End - cur.Start
	}
	return span.End - span.Start - covered
}
