package main

// Per-layer probes for the traced run: each layer below pathsel is timed
// from outside, through its own public functions, on the workload's
// graph. The probes share nothing with the end-to-end phases except the
// inputs, so they cost the traced run only.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ordering"
	"repro/internal/paths"
	"repro/pathsel"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianOf runs fn reps times inside spans named name and returns the
// median duration.
func medianOf(tr *tracer, name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(tr.timed(name, fn))
	}
	return time.Duration(median(ds))
}

// probeLayers times the graph, bitset, paths, ordering, histogram and
// core layers on the workload's graph at path length k with the
// estimator's configuration (sum-based ordering, V-optimal, beta
// buckets).
func probeLayers(rep *report, tr *tracer, in *inputs, k, beta, workers int) error {
	// graph: first touch of the label and predecessor operands on a
	// freshly frozen CSR.
	rep.layer("graph.operands_ms", ms(medianOf(tr, "graph.operands", 3, func() {
		c := in.g.Freeze()
		c.Operands(true)
		for l := 0; l < c.NumLabels(); l++ {
			c.PredecessorOperand(l)
		}
	})))

	// bitset: one kernel call each on fixed operands — the two-hop
	// relation over the two most frequent labels, held all-sparse or
	// all-dense, composed with the most frequent label.
	g := in.csr
	n := g.NumVertices()
	freq := g.LabelFrequencies()
	order := make([]int, len(freq))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return freq[order[a]] > freq[order[b]] })
	l1, l2 := order[0], order[min(1, len(order)-1)]
	scr := bitset.NewComposeScratch(n)
	twoHop := func(density float64) *bitset.HybridRelation {
		return bitset.HybridFromCSR(g.LabelOperand(l1), density).Compose(g.LabelOperand(l2), density)
	}
	const allSparse, allDense = 1.0, 1e-12
	for _, c := range []struct {
		name    string
		density float64
	}{{"bitset.compose_sparse_us", allSparse}, {"bitset.compose_dense_us", allDense}} {
		src, dst := twoHop(c.density), bitset.NewHybrid(n, c.density)
		rep.layer(c.name, us(medianOf(tr, c.name, 9, func() {
			src.ComposeInto(dst, g.LabelOperand(l1), scr)
		})))
	}
	left, right := twoHop(0), bitset.HybridFromCSR(g.LabelOperand(l1), 0)
	joined := bitset.NewHybrid(n, 0)
	rep.layer("bitset.join_us", us(medianOf(tr, "bitset.join", 9, func() {
		left.JoinInto(joined, right, scr)
	})))

	// paths: the census the estimator is built on.
	var census *paths.Census
	var err error
	d := tr.timed("paths.census", func() {
		census, err = paths.NewCensusHybridChecked(g, k, paths.CensusOptions{Workers: workers})
	})
	if err != nil {
		return fmt.Errorf("census: %w", err)
	}
	rep.layer("paths.census_s", d.Seconds())

	// ordering: the sum-based domain ordering.
	var ord ordering.Ordering
	rep.layer("ordering.build_ms", ms(medianOf(tr, "ordering.build", 3, func() {
		ord, err = ordering.ForGraph(ordering.MethodSumBased, g, k)
	})))
	if err != nil {
		return fmt.Errorf("ordering: %w", err)
	}

	// core: domain vector plus V-optimal partitioning.
	var ph *core.PathHistogram
	rep.layer("core.build_ms", ms(medianOf(tr, "core.build", 3, func() {
		ph, err = core.Build(census, ord, core.BuilderVOptimal, beta)
	})))
	if err != nil {
		return fmt.Errorf("histogram: %w", err)
	}
	rep.layer("histogram.buckets", float64(ph.Buckets()))

	// core: one estimate on an already parsed path, swept over Lk.
	var lk []paths.Path
	census.ForEach(func(p paths.Path, _ int64) bool {
		lk = append(lk, p.Clone())
		return true
	})
	var calls int
	var sink float64
	d = tr.timed("core.estimate", func() {
		for start := time.Now(); calls < len(lk) || time.Since(start) < 200*time.Millisecond; {
			for _, p := range lk {
				sink += ph.Estimate(p)
			}
			calls += len(lk)
		}
	})
	_ = sink // keeps the sweep observable
	rep.layer("core.estimate_ns", float64(d.Nanoseconds())/float64(calls))
	return nil
}

// probePlans measures plan quality on concrete queries of length ≥ 2:
// every zig-zag start is executed uncached with exec.ExecutePlanChecked,
// the chosen plan's work is compared with the least work over all
// starts, and the planner's estimate of every intermediate segment with
// its actual size. Every result is checked against the oracle.
func probePlans(rep *report, tr *tracer, in *inputs, est *pathsel.Estimator, qs []paths.Path, o *oracle, workers int) error {
	var chosenWork, bestWork int64
	var qsum float64
	var nInter int
	for _, p := range qs {
		q := in.pathString(p)
		plan, err := est.PlanQuery(q)
		if err != nil {
			return fmt.Errorf("plan %q: %w", q, err)
		}
		best := int64(-1)
		for s := range p {
			var st exec.Stats
			id := tr.newID()
			start := time.Now()
			_, st, err = exec.ExecutePlanChecked(in.csr, p, exec.Plan{Start: s}, exec.Options{Workers: workers})
			tr.record(id, 0, int64(id), "exec.execute_plan", start, time.Now())
			if err != nil {
				return fmt.Errorf("execute %q from %d: %w", q, s, err)
			}
			if st.Result != o.truth[q] {
				return fmt.Errorf("execute %q from %d: %d pairs, oracle %d", q, s, st.Result, o.truth[q])
			}
			if best < 0 || st.Work < best {
				best = st.Work
			}
			if s != plan.Start {
				continue
			}
			chosenWork += st.Work
			for i, seg := range planSegments(p, s) {
				e, err := est.Estimate(in.pathString(seg))
				if err != nil {
					return fmt.Errorf("estimate segment of %q: %w", q, err)
				}
				qsum += qError(e, float64(st.Intermediates[i]))
				nInter++
			}
		}
		bestWork += best
	}
	rep.layer("exec.plan_work_ratio", float64(chosenWork+1)/float64(bestWork+1))
	rep.layer("exec.intermediate_qerror", qsum/float64(max(nInter, 1)))
	return nil
}

// planSegments lists, in execution order, the segments a zig-zag plan
// starting at s materializes before its result: growing right from s,
// then prepending leftwards — the order of exec.Stats.Intermediates.
func planSegments(p paths.Path, s int) []paths.Path {
	var out []paths.Path
	for j := s + 1; j < len(p); j++ {
		out = append(out, p[s:j])
	}
	if s > 0 {
		for i := s - 1; i >= 0; i-- {
			out = append(out, p[i+1:])
		}
	}
	return out
}
