package main

// Generated inputs and the independent oracle. The graph comes from the
// repository's dataset generators seeded by --seed and is handed to the
// program only as vertices, labels and edges; the oracle answers come
// from the reference evaluator (paths.Selectivity and the pattern
// expansion union), computed once before any timed phase.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/pathsel"
)

// inputs is one workload's generated graph in both forms: the internal
// CSR the per-layer probes and the oracle read, and the public graph the
// program under test is built from.
type inputs struct {
	Dataset string
	Scale   float64
	g       *graph.Graph
	csr     *graph.CSR
	pg      *pathsel.Graph
	labels  []string
}

// inputSeed seeds every generated graph and query pool. The graph and
// the pool stay the same for every run, so runs with different --seed
// values measure one system on one data set; --seed draws the request
// stream.
const inputSeed = 1

// makeInputs generates a Table 3 dataset at scale.
func makeInputs(name string, scale float64) (*inputs, error) {
	var spec *dataset.Spec
	for _, s := range dataset.Table3() {
		if s.Name == name {
			spec = &s
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	g := dataset.Generate(*spec, scale, inputSeed)
	labels := make([]string, g.NumLabels())
	for l := range labels {
		labels[l] = g.LabelName(l)
	}
	pg, err := pathsel.NewGraphChecked(g.NumVertices(), labels)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	for _, e := range g.Edges() {
		if _, err := pg.AddEdge(e.Src, labels[e.Label], e.Dst); err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
	}
	return &inputs{Dataset: name, Scale: scale, g: g, csr: g.Freeze(), pg: pg, labels: labels}, nil
}

// fingerprint adds the dataset's shape to a run fingerprint.
func (in *inputs) fingerprint(fp map[string]any, k int) {
	fp["dataset"] = in.Dataset
	fp["scale"] = in.Scale
	fp["V"] = in.g.NumVertices()
	fp["E"] = in.g.NumEdges()
	fp["L"] = in.g.NumLabels()
	fp["k"] = k
}

// pathString renders a label path in the wire form "a/b/c".
func (in *inputs) pathString(p paths.Path) string {
	parts := make([]string, len(p))
	for i, l := range p {
		parts[i] = in.labels[l]
	}
	return strings.Join(parts, "/")
}

// oracle holds exact answers computed by the reference evaluator.
type oracle struct {
	truth   map[string]int64
	elapsed time.Duration
}

// concreteOracle answers every path with pathsel.Graph.TrueSelectivity,
// which runs paths.Selectivity — the left-to-right reference evaluator,
// with no planner and no cache — on the graph the estimator is built
// from (sharing its adjacency, so the oracle adds no memory).
func (in *inputs) concreteOracle(ps []paths.Path) (*oracle, error) {
	start := time.Now()
	o := &oracle{truth: make(map[string]int64, len(ps))}
	for _, p := range ps {
		q := in.pathString(p)
		v, err := in.pg.TrueSelectivity(q)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", q, err)
		}
		o.truth[q] = v
	}
	o.elapsed = time.Since(start)
	return o, nil
}

// addPatterns answers RPQ patterns under set semantics (the union of
// every concrete expansion, pathsel.Graph.TruePatternSelectivity) —
// what executing a pattern returns.
func (o *oracle) addPatterns(pg *pathsel.Graph, patterns []string) error {
	start := time.Now()
	for _, q := range patterns {
		v, err := pg.TruePatternSelectivity(q)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", q, err)
		}
		o.truth[q] = v
	}
	o.elapsed += time.Since(start)
	return nil
}

// resultMiB estimates the content bytes of every path's result
// relation from every stride-th path, evaluated on the internal graph: a
// lower bound on the relation cache's working set for those queries
// (their segments come on top).
func (in *inputs) resultMiB(ps []paths.Path, stride int) float64 {
	var bytes int64
	for i := 0; i < len(ps); i += stride {
		bytes += int64(paths.Evaluate(in.csr, ps[i]).CloneMemSize())
	}
	return float64(bytes) * float64(stride) / (1 << 20)
}

// accuracy is the paper's accuracy of estimates against exact counts.
type accuracy struct {
	QErrorMean, ErrRateMean float64
	N                       int
}

// accuracyOf evaluates est on every query against the oracle truth.
func accuracyOf(est *pathsel.Estimator, queries []string, o *oracle) (accuracy, error) {
	var a accuracy
	for _, q := range queries {
		e, err := est.Estimate(q)
		if err != nil {
			return a, fmt.Errorf("estimate %q: %w", q, err)
		}
		f := float64(o.truth[q])
		a.QErrorMean += qError(e, f)
		a.ErrRateMean += errRate(e, f)
		a.N++
	}
	a.QErrorMean /= float64(max(a.N, 1))
	a.ErrRateMean /= float64(max(a.N, 1))
	return a, nil
}

// domainSize is |Lk| = Σ L^i for i = 1..k.
func domainSize(numLabels, k int) int64 {
	var total, pow int64 = 0, 1
	for i := 1; i <= k; i++ {
		pow *= int64(numLabels)
		total += pow
	}
	return total
}
