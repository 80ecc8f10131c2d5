package main

// exec-churn: in-process execution under cache churn. Closed-loop
// callers draw uniformly from a pool of concrete paths and RPQ patterns,
// each compiled once, whose working set is several times the relation
// cache's budget. Join kernels, the RPQ DAG executor, sched sharding and
// relcache publish/evict do the work; the serving layer is bypassed.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/paths"
	"repro/internal/workload"
	"repro/pathsel"
)

const (
	churnDataset    = "DBpedia (subgraph)"
	churnScale      = 0.5
	churnK          = 4
	churnBeta       = 64
	churnCacheBytes = 64 << 20
	churnConcrete   = 1000
	churnPatterns   = 100
	// churnMaxExpansions keeps patterns whose expansion count is small,
	// so one wildcard-heavy draw cannot dominate a run (or the oracle).
	churnMaxExpansions = 16
	churnWarmup        = 200
	churnPlanSample    = 48
	// churnSetups is how many times set-up runs before the measured
	// phase; it runs one time fewer after it.
	churnSetups = 4
)

// churnWorkers is the executor's join parallelism: one worker per CPU.
func churnWorkers() int { return runtime.NumCPU() }

// patternExpansions counts the concrete label paths an RPQ pattern of
// the pathsel grammar expands to over numLabels labels, saturating at
// limit+1.
func patternExpansions(pattern string, numLabels, limit int) int {
	total := 1
	for _, seg := range strings.Split(pattern, "/") {
		atom, lo, hi := seg, 1, 1
		switch {
		case strings.HasSuffix(atom, "?"):
			atom, lo = atom[:len(atom)-1], 0
		case strings.HasSuffix(atom, "}"):
			i := strings.LastIndex(atom, "{")
			bounds := strings.Split(atom[i+1:len(atom)-1], ",")
			atom = atom[:i]
			lo, _ = strconv.Atoi(bounds[0])
			hi = lo
			if len(bounds) == 2 {
				hi, _ = strconv.Atoi(bounds[1])
			}
		}
		width := numLabels
		if atom != "*" {
			width = len(strings.Split(strings.Trim(atom, "()"), "|"))
		}
		ways, pow := 0, 1
		for r := 0; r <= hi; r++ {
			if r >= lo {
				ways += pow
			}
			pow = min(pow*width, limit+1)
		}
		total = min(total*ways, limit+1)
	}
	return total
}

// churnPool draws the concrete paths (length 2..k) and the patterns.
func churnPool(in *inputs, seed int64) ([]paths.Path, []string, error) {
	var concrete []paths.Path
	for n := churnConcrete * 3 / 2; len(concrete) < churnConcrete; n *= 2 {
		pool, err := workload.QueryPool(len(in.labels), churnK, n, seed)
		if err != nil {
			return nil, nil, err
		}
		concrete = concrete[:0]
		for _, p := range pool {
			if len(p) >= 2 && len(concrete) < churnConcrete {
				concrete = append(concrete, p)
			}
		}
	}
	drawn, err := workload.RPQPool(in.labels, churnK, churnPatterns*8, seed)
	if err != nil {
		return nil, nil, err
	}
	var patterns []string
	for _, q := range drawn {
		if len(patterns) < churnPatterns && patternExpansions(q, len(in.labels), churnMaxExpansions) <= churnMaxExpansions {
			patterns = append(patterns, q)
		}
	}
	return concrete, patterns, nil
}

// churnQuery is one compiled pool entry with its oracle answer.
type churnQuery struct {
	q    string
	x    *pathsel.Expr
	want int64
}

// churnPhase runs one closed-loop caller for d and returns the phase
// with every execution's stats. The caller executes the whole pool in
// passes, each pass in a fresh order drawn from seed: every run then
// executes the same mix of cheap and expensive queries, and only their
// order varies.
func churnPhase(qs []churnQuery, d time.Duration, seed int64, tr *tracer) (closedResult, []pathsel.ExecStats) {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	var stats []pathsel.ExecStats
	res := closedLoop(d, func(i int) (bool, error) {
		if i%len(qs) == 0 {
			order = rng.Perm(len(qs))
		}
		q := qs[order[i%len(qs)]]
		id := tr.newID()
		start := time.Now()
		st, err := q.x.Execute()
		tr.record(id, 0, int64(id), "pathsel.execute", start, time.Now())
		stats = append(stats, st)
		if err == nil && st.Degraded {
			err = fmt.Errorf("%q: degraded by %v", q.q, st.DegradedBy)
		}
		return err == nil && st.Result != q.want, err
	})
	return res, stats
}

// churnPasses is how many windows a phase's percentiles are taken over
// (their median is reported): one per whole pass over the pool, so every
// window holds the same mix.
func churnPasses(r closedResult, qs []churnQuery) int {
	return max(1, len(r.LatMs)/len(qs))
}

// churnSetup builds the estimator, compiles every query once, and warms
// the cache with seeded draws, checking every warm-up answer.
func churnSetup(in *inputs, all []string, o *oracle, seed int64) (*pathsel.Estimator, []churnQuery, error) {
	est, err := pathsel.Build(in.pg, pathsel.Config{
		MaxPathLength: churnK, Buckets: churnBeta, Workers: churnWorkers(), CacheBytes: churnCacheBytes,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	qs := make([]churnQuery, len(all))
	for i, q := range all {
		x, err := est.Compile(q)
		if err != nil {
			return nil, nil, fmt.Errorf("compile %q: %w", q, err)
		}
		qs[i] = churnQuery{q: q, x: x, want: o.truth[q]}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < churnWarmup; i++ {
		q := qs[rng.Intn(len(qs))]
		st, err := q.x.Execute()
		if err != nil || st.Result != q.want {
			return nil, nil, fmt.Errorf("warm-up %q: %d pairs, oracle %d, err %v", q.q, st.Result, q.want, err)
		}
	}
	return est, qs, nil
}

func runExecChurn(cfg runConfig) (*report, error) {
	rep := newReport()
	in, err := makeInputs(churnDataset, churnScale)
	if err != nil {
		return nil, err
	}
	in.fingerprint(rep.Finger, churnK)
	concrete, patterns, err := churnPool(in, inputSeed)
	if err != nil {
		return nil, err
	}
	o, err := in.concreteOracle(concrete)
	if err != nil {
		return nil, err
	}
	if err := o.addPatterns(in.pg, patterns); err != nil {
		return nil, err
	}
	all := make([]string, 0, len(concrete)+len(patterns))
	for _, p := range concrete {
		all = append(all, in.pathString(p))
	}
	names := append([]string(nil), all...) // the concrete paths, for accuracy
	all = append(all, patterns...)

	// Set-up runs churnSetups times before the measured phase (the last
	// one serves the run) and churnSetups-1 times after it, so that
	// setup_s, their median, does not rest on one stretch of the host's
	// time.
	setup := func() (*pathsel.Estimator, []churnQuery, float64, error) {
		runtime.GC() // the previous set-up's estimator is garbage; do not charge its collection
		start := time.Now()
		est, qs, err := churnSetup(in, all, o, cfg.Seed)
		return est, qs, time.Since(start).Seconds(), err
	}
	var est *pathsel.Estimator
	var qs []churnQuery
	var setups []float64
	for i := 0; i < churnSetups; i++ {
		est, qs = nil, nil
		e, q, secs, err := setup()
		if err != nil {
			return nil, err
		}
		est, qs = e, q
		setups = append(setups, secs)
	}
	runtime.GC() // start measuring from the same heap state every run

	// The estimator's domain is every label path of length 1..k, and its
	// census counts agree with the reference evaluator's.
	want := domainSize(len(in.labels), churnK)
	rep.check(est.DomainSize() == want, "domain size %d, want Σ L^i = %d", est.DomainSize(), want)
	for _, q := range names {
		got, err := est.TrueSelectivity(q)
		if err != nil {
			return nil, fmt.Errorf("census count %q: %w", q, err)
		}
		rep.check(got == o.truth[q], "census %q = %d, reference evaluator %d", q, got, o.truth[q])
	}
	acc, err := accuracyOf(est, names, o)
	if err != nil {
		return nil, err
	}
	rep.e2e("q_error_mean", acc.QErrorMean)
	rep.e2e("err_rate_mean", acc.ErrRateMean)
	rep.Finger["queries"] = len(concrete)
	rep.Finger["patterns"] = len(patterns)
	rep.Finger["workers"] = churnWorkers()
	rep.Finger["cache_budget_mb"] = float64(churnCacheBytes) / (1 << 20)
	rep.Finger["oracle_s"] = o.elapsed.Seconds()

	if cfg.Trace {
		if err := churnTraced(cfg, rep, in, est, qs, concrete, o); err != nil {
			return nil, err
		}
	} else {
		one, _ := churnPhase(qs, cfg.budget(1), cfg.Seed, nil)
		rep.countClosed(one)
		passes := churnPasses(one, qs)
		d1 := windowed(one.LatMs, passes)
		rep.sample(fmt.Sprintf("execute_ms over %d passes", passes), d1)
		rep.rate("queries", windowedRate(one.LatMs, 1, passes))
		rep.e2e("p50_ms", d1.P50)
	}
	cs, _ := est.CacheStats()
	rep.Finger["cache_hit_rate"] = cs.HitRate()
	rep.Finger["cache_evictions"] = cs.Evictions
	if cfg.Trace {
		return rep, nil
	}

	est, qs = nil, nil // garbage for the set-ups below
	for i := 1; i < churnSetups; i++ {
		_, _, secs, err := setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	rep.sample("setup_s", summarize(setups))
	rep.e2e("setup_s", median(setups))
	return rep, nil
}

// churnTraced is the traced run of exec-churn: the one-caller phase once
// untraced and once traced, the layers read from the traced phase's
// execution stats and cache counters, then the plan and layer probes.
func churnTraced(cfg runConfig, rep *report, in *inputs, est *pathsel.Estimator, qs []churnQuery, concrete []paths.Path, o *oracle) error {
	tr := cfg.tr
	plain, _ := churnPhase(qs, cfg.budget(0.35), cfg.Seed, nil)
	rep.countClosed(plain)
	cs0, _ := est.CacheStats()
	m0 := readMem()
	traced, stats := churnPhase(qs, cfg.budget(0.35), cfg.Seed, tr)
	m1 := readMem()
	cs1, _ := est.CacheStats()
	rep.countClosed(traced)
	dp, dt := windowed(plain.LatMs, churnPasses(plain, qs)), windowed(traced.LatMs, churnPasses(traced, qs))
	rep.sample("untraced execute_ms", dp)
	rep.sample("traced execute_ms", dt)
	rep.layer("trace.overhead_pct", 100*(dt.P50-dp.P50)/dp.P50)
	n := float64(len(stats))
	rep.layer("pathsel.execute_us.p50", dt.P50*1e3)
	rep.layer("pathsel.execute_us.p99", dt.Tail*1e3)
	rep.layer("pathsel.allocs_per_query", float64(m1.mallocs-m0.mallocs)/n)
	var work, tasks, steals, parks int64
	for _, st := range stats {
		work += st.Work
		tasks += st.Sched.Tasks
		steals += st.Sched.Steals
		parks += st.Sched.Parks
	}
	rep.layer("exec.work_pairs_per_query", float64(work)/n)
	rep.layer("sched.tasks_per_query", float64(tasks)/n)
	rep.layer("sched.steals_per_query", float64(steals)/n)
	rep.layer("sched.parks_per_query", float64(parks)/n)
	cacheLayer(rep, cs0, cs1, n)
	rep.layer("runtime.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6)
	// No server and a closed loop: the serving and load layers are idle.
	for _, name := range []string{"serve.handler_us.p50", "serve.handler_us.p99", "serve.transport_us.p50", "serve.accounted_share"} {
		rep.layer(name, 0)
	}
	rep.layer("load.gen_late_ms.p99", 0)
	rep.layer("load.backlog_max", 0)

	// Compile cost per query: paid once per pool entry in set-up here.
	var compile []float64
	for _, q := range qs {
		var err error
		compile = append(compile, us(tr.timed("pathsel.compile", func() { _, err = est.Compile(q.q) })))
		if err != nil {
			return fmt.Errorf("compile %q: %w", q.q, err)
		}
	}
	dc := summarize(compile)
	rep.sample("pathsel.compile_us", dc)
	rep.layer("pathsel.compile_us.p50", dc.P50)

	rep.Finger["working_set_mb_lower_bound"] = in.resultMiB(concrete, 8)
	if err := probePlans(rep, tr, in, est, concrete[:min(churnPlanSample, len(concrete))], o, churnWorkers()); err != nil {
		return err
	}
	return probeLayers(rep, tr, in, churnK, churnBeta, churnWorkers())
}
