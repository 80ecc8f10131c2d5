// Command benchmark is the repository's benchmark: two workloads that
// drive the serving layer over loopback HTTP and the pathsel library in
// process, each checked against an independent oracle. See README.md for the workloads, the metrics and how to run
// it.
//
//	go run . --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). Earlier lines are for people: the
// run fingerprint, sample counts behind every percentile, and notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	tr       *tracer // nil unless Trace
}

// budget returns a share of the measured time.
func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(c.Seconds * share * float64(time.Second))
}

// report is what a workload hands back.
type report struct {
	Attempted, Failed int64
	// Wrong counts answers that disagreed with the oracle (a subset of
	// Failed); any wrong answer makes the run incorrect.
	Wrong   int64
	E2E     map[string]metric
	Layer   map[string]metric
	Finger  map[string]any
	Samples []string // one line per percentile: what it rests on
}

func newReport() *report {
	return &report{E2E: map[string]metric{}, Layer: map[string]metric{}, Finger: map[string]any{}}
}

// e2eUnits lists every end-to-end metric with its unit; each workload
// reports all of them (README.md says what each means per workload).
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"peak_rss_mb":   "MiB",
	"ok_share":      "ratio",
	"p50_ms":        "ms",
	"q_error_mean":  "ratio",
	"err_rate_mean": "ratio",
}

// layerUnits lists every per-layer metric with its unit. A layer a
// workload does not exercise reports 0.
var layerUnits = map[string]string{
	"serve.handler_us.p50":         "us",
	"serve.handler_us.p99":         "us",
	"serve.transport_us.p50":       "us",
	"serve.accounted_share":        "ratio",
	"load.gen_late_ms.p99":         "ms",
	"load.backlog_max":             "count",
	"load.wait_us.p50":             "us",
	"pathsel.compile_us.p50":       "us",
	"pathsel.execute_us.p50":       "us",
	"pathsel.execute_us.p99":       "us",
	"pathsel.allocs_per_query":     "count",
	"relcache.hit_rate":            "ratio",
	"relcache.hits_per_put":        "ratio",
	"relcache.evictions_per_query": "count",
	"relcache.rejected":            "count",
	"relcache.lock_wait_us":        "us",
	"exec.work_pairs_per_query":    "pairs",
	"exec.intermediate_qerror":     "ratio",
	"exec.plan_work_ratio":         "ratio",
	"sched.tasks_per_query":        "count",
	"sched.steals_per_query":       "count",
	"sched.parks_per_query":        "count",
	"bitset.compose_sparse_us":     "us",
	"bitset.compose_dense_us":      "us",
	"bitset.join_us":               "us",
	"graph.operands_ms":            "ms",
	"paths.census_s":               "s",
	"ordering.build_ms":            "ms",
	"core.build_ms":                "ms",
	"histogram.buckets":            "count",
	"core.estimate_ns":             "ns",
	"runtime.gc_pause_ms":          "ms",
	"runtime.heap_peak_mb":         "MiB",
	"trace.overhead_pct":           "%",
}

func (r *report) e2e(name string, v float64)   { r.E2E[name] = metric{v, unitOf(e2eUnits, name)} }
func (r *report) layer(name string, v float64) { r.Layer[name] = metric{v, unitOf(layerUnits, name)} }

// unitOf looks a metric's unit up; an unlisted name is a bug.
func unitOf(units map[string]string, name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: unlisted metric " + name)
	}
	return u
}

// checkE2E checks that a workload reported every end-to-end metric with
// a finite value.
func (r *report) checkE2E() error {
	for name := range e2eUnits {
		m, ok := r.E2E[name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s not reported", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("end-to-end metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// fillIdleLayers reports 0 for every layer a workload did not exercise
// (or could not measure).
func (r *report) fillIdleLayers() {
	for name := range layerUnits {
		m, ok := r.Layer[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.layer(name, 0)
		}
	}
}

// check counts one verification as an attempt; a failed one counts as
// a wrong answer, noted as a sample line.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Wrong++
		r.Samples = append(r.Samples, fmt.Sprintf(format, args...))
	}
}

// sample notes the sample behind a distribution.
func (r *report) sample(what string, d dist) {
	tail := ""
	if d.TailPct > 90 {
		tail = fmt.Sprintf(" p%g=%.4g", d.TailPct, d.Tail)
	}
	r.Samples = append(r.Samples, fmt.Sprintf("%s: n=%d p50=%.4g p90=%.4g%s max=%.4g (highest supported p%g)",
		what, d.N, d.P50, d.P90, tail, d.Max, d.Supports))
}

// rate notes a closed-loop throughput. It is printed, not gated: it
// follows the mean operation time, tails included, and spread between
// runs about twice as far as the median on the hosts this was tuned on.
func (r *report) rate(what string, perSecond float64) {
	r.Samples = append(r.Samples, fmt.Sprintf("throughput: %.6g %s/s (median over windows)", perSecond, what))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"serve-zipf": runServeZipf,
	"exec-churn": runExecChurn,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "serve-zipf or exec-churn")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the request stream (the graph and query pool are fixed)")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (serve-zipf or exec-churn), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	var mem *heapSampler
	if cfg.Trace {
		cfg.tr = newTracer()
		mem = startHeapSampler()
	}
	rep, err := run(cfg)
	var heapPeak float64
	if mem != nil {
		heapPeak = mem.stop()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	rep.Finger["workload"] = cfg.Workload
	rep.Finger["seed"] = cfg.Seed
	rep.Finger["seconds"] = cfg.Seconds
	rep.Finger["nproc"] = runtime.NumCPU()
	rep.Finger["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.Finger["go"] = runtime.Version()
	rep.Finger["trace"] = cfg.Trace
	rep.e2e("peak_rss_mb", peakRSSMiB())
	rep.e2e("ok_share", float64(rep.Attempted-rep.Failed)/float64(max(rep.Attempted, 1)))

	out := result{Correct: rep.Wrong == 0 && rep.Attempted > 0, Attempted: rep.Attempted, Failed: rep.Failed}
	if cfg.Trace {
		rep.layer("runtime.heap_peak_mb", heapPeak)
		// The traced run reports layers; its end-to-end phases only
		// feed the tracing overhead.
		rep.fillIdleLayers()
		out.Metrics = rep.Layer
		if err := cfg.tr.dump(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", cfg.Workload, cfg.Seed)); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
	} else {
		if err := rep.checkE2E(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.Workload, err)
			os.Exit(1)
		}
		out.Metrics = rep.E2E
	}
	fp, _ := json.Marshal(rep.Finger) // strings and finite numbers only: cannot fail
	fmt.Printf("fingerprint %s\n", fp)
	for _, s := range rep.Samples {
		fmt.Printf("sample %s\n", s)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
