package main

// serve-zipf: the serving path. An open-loop Poisson stream of Zipf-ranked
// concrete paths hits internal/serve over loopback HTTP. The cache holds
// the pool's whole working set, so after the warm-up every query is a
// whole-query cache hit and the HTTP front end, per-request compile and
// the relcache hit path do almost all the work.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"repro/internal/paths"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/pathsel"
)

const (
	serveDataset    = "SNAP-FF"
	serveScale      = 0.2
	serveK          = 3
	serveBeta       = 64
	serveWorkers    = 1 // join workers, the pathserve default
	serveCacheBytes = 256 << 20
	servePoolSize   = 256
	serveConns      = 2
	serveZipfS      = 1.2
	// serveSetups is how many times set-up runs before the measured
	// phase; it runs one time fewer after it (see runServeZipf).
	serveSetups = 6
	// serveLowRate is the traced run's offered rate, about 20% of the
	// capacity measured at two connections on the benchmark's reference
	// host. It is never re-probed, so every commit faces the same load.
	serveLowRate = 1600.0
	// phaseWindows is how many consecutive windows a phase's percentiles
	// are taken over (their median is reported).
	phaseWindows = 20
	// spanHeader and reqHeader carry the client's request-span ID and
	// request ID to the handler.
	spanHeader, reqHeader = "X-Bench-Span", "X-Bench-Req"
)

// serveRig is one running server over one estimator.
type serveRig struct {
	est    *pathsel.Estimator
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *tracer
}

// tracedHandler records the time spent in Server.ServeHTTP as a child
// of the client's request span.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	t.tr.record(t.tr.newID(), parent, req, "serve.handler", start, end)
}

// startServe builds the estimator and serves it.
func startServe(in *inputs) (*serveRig, error) {
	est, err := pathsel.Build(in.pg, pathsel.Config{
		MaxPathLength: serveK, Buckets: serveBeta, Workers: serveWorkers, CacheBytes: serveCacheBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return listen(est, serve.New(est), nil)
}

// listen serves srv on a loopback port, behind the traced handler when
// tr is set.
func listen(est *pathsel.Estimator, srv *serve.Server, tr *tracer) (*serveRig, error) {
	r := &serveRig{est: est, srv: srv, served: make(chan error, 1), tr: tr}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{h: srv, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.hs = &http.Server{Handler: h}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	return r, nil
}

// close stops the server and waits for its accept loop to return; a
// second call does nothing.
func (r *serveRig) close() error {
	if r.hs == nil {
		return nil
	}
	defer func() { r.hs = nil }()
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// query sends one /query request and checks its answer: a transport
// error, a non-200 or a degraded answer is a failure, a result other
// than want is wrong.
//
// A traced request is a "load.request" span, child of parent, whose own
// child is the handler's span.
func (r *serveRig) query(q string, want int64, parent uint64) (wrong bool, err error) {
	id := r.tr.newID()
	start := time.Now()
	defer func() { r.tr.record(id, parent, int64(parent), "load.request", start, time.Now()) }()
	req, err := http.NewRequest(http.MethodGet, r.base+"/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		return false, err
	}
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		req.Header.Set(reqHeader, strconv.FormatUint(parent, 10))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // keeps the connection reusable
		return false, fmt.Errorf("%q: status %d", q, resp.StatusCode)
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return false, fmt.Errorf("%q: %w", q, err)
	}
	if qr.Degraded {
		return false, fmt.Errorf("%q: degraded by %s", q, qr.DegradedBy)
	}
	return qr.Result != want, nil
}

// servePhase replays one Poisson stream at rate for d.
func (r *serveRig) servePhase(pool []string, poolPaths []paths.Path, o *oracle, rate float64, d time.Duration, seed int64) (openLoopResult, error) {
	tr, err := workload.ZipfTrace(workload.TraceOptions{
		Pool: poolPaths, S: serveZipfS, Rate: rate, N: max(1, int(rate*d.Seconds())), Seed: seed,
	})
	if err != nil {
		return openLoopResult{}, fmt.Errorf("trace: %w", err)
	}
	due := make([]time.Duration, len(tr))
	for i, a := range tr {
		due[i] = a.At
	}
	return openLoop(due, serveConns, func(i int, dueAt time.Time) (bool, error) {
		q := pool[tr[i].Rank]
		// A traced arrival is a "load.arrival" span from its due time to
		// its answer: the sojourn, whose self time is the wait to send.
		id := r.tr.newID()
		defer func() { r.tr.record(id, 0, int64(id), "load.arrival", dueAt, time.Now()) }()
		return r.query(q, o.truth[q], id)
	})
}

// closedPhase sends Zipf-drawn queries back to back on one connection
// for d.
func (r *serveRig) closedPhase(pool []string, poolPaths []paths.Path, o *oracle, d time.Duration, seed int64) (closedResult, error) {
	// Rate 0 is a saturation trace: ranks only, every arrival at 0.
	draws, err := workload.ZipfTrace(workload.TraceOptions{Pool: poolPaths, S: serveZipfS, N: 1 << 16, Seed: seed})
	if err != nil {
		return closedResult{}, fmt.Errorf("trace: %w", err)
	}
	return closedLoop(d, func(i int) (bool, error) {
		q := pool[draws[i%len(draws)].Rank]
		return r.query(q, o.truth[q], 0)
	}), nil
}

func runServeZipf(cfg runConfig) (*report, error) {
	rep := newReport()
	in, err := makeInputs(serveDataset, serveScale)
	if err != nil {
		return nil, err
	}
	in.fingerprint(rep.Finger, serveK)
	poolPaths, err := workload.QueryPool(len(in.labels), serveK, servePoolSize, inputSeed)
	if err != nil {
		return nil, err
	}
	pool := make([]string, len(poolPaths))
	for i, p := range poolPaths {
		pool[i] = in.pathString(p)
	}
	o, err := in.concreteOracle(poolPaths)
	if err != nil {
		return nil, err
	}

	// Set-up: build, start the server, and warm the cache and
	// connections with every pool query. It runs serveSetups times
	// before the measured phase (the last rig serves the run) and
	// serveSetups-1 times after it, so that setup_s, their median, does
	// not rest on one stretch of the host's time.
	setup := func() (*serveRig, float64, error) {
		runtime.GC() // the previous set-up's estimator is garbage; do not charge its collection
		start := time.Now()
		r, err := startServe(in)
		if err != nil {
			return nil, 0, err
		}
		for _, q := range pool {
			wrong, err := r.query(q, o.truth[q], 0)
			if err != nil || wrong {
				r.close()
				return nil, 0, fmt.Errorf("warm-up %q: wrong=%v err=%v", q, wrong, err)
			}
		}
		return r, time.Since(start).Seconds(), nil
	}
	var rig *serveRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, fmt.Errorf("close server: %w", err)
			}
			rig = nil
		}
		r, secs, err := setup()
		if err != nil {
			return nil, err
		}
		rig = r
		setups = append(setups, secs)
	}
	runtime.GC() // start measuring from the same heap state every run
	cs, _ := rig.est.CacheStats()
	rep.Finger["cache_budget_mb"] = float64(cs.MaxBytes) / (1 << 20)
	rep.Finger["working_set_mb"] = float64(cs.Bytes) / (1 << 20) // the whole pool is cached after warm-up
	rep.Finger["cache_evictions_after_warmup"] = cs.Evictions
	rep.Finger["conns"] = serveConns

	acc, err := accuracyOf(rig.est, pool, o)
	if err != nil {
		return nil, err
	}
	rep.e2e("q_error_mean", acc.QErrorMean)
	rep.e2e("err_rate_mean", acc.ErrRateMean)

	if cfg.Trace {
		return rep, serveTraced(cfg, rep, in, rig, pool, poolPaths, o)
	}

	// Closed loop on one connection: the gated figures.
	one, err := rig.closedPhase(pool, poolPaths, o, cfg.budget(1), cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep.countClosed(one)
	d1 := windowed(one.LatMs, phaseWindows)
	rep.sample("round_trip_ms, 1 connection", d1)
	rep.rate("requests", windowedRate(one.LatMs, 1, phaseWindows))
	rep.e2e("p50_ms", d1.P50)

	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("close server: %w", err)
	}
	rig = nil
	for i := 1; i < serveSetups; i++ {
		r, secs, err := setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("close server: %w", err)
		}
	}
	rep.sample("setup_s", summarize(setups))
	rep.e2e("setup_s", median(setups))
	return rep, nil
}

// serveTraced is the traced run of serve-zipf: the low-rate phase once
// untraced and once traced (their difference is the tracing overhead),
// the per-request layer split, direct pathsel calls over the pool, and
// the layer probes.
func serveTraced(cfg runConfig, rep *report, in *inputs, rig *serveRig, pool []string, poolPaths []paths.Path, o *oracle) error {
	tr := cfg.tr
	plain, err := rig.servePhase(pool, poolPaths, o, serveLowRate, cfg.budget(0.4), cfg.Seed)
	if err != nil {
		return err
	}
	rep.countOpen(plain)
	// Restart the server with the traced handler; the estimator, its
	// warm cache and the connections' warm state carry over.
	if err := rig.close(); err != nil {
		return err
	}
	traced, err := listen(rig.est, rig.srv, tr)
	if err != nil {
		return err
	}
	*rig = *traced
	for _, q := range pool { // re-open connections untimed
		if _, err := rig.query(q, o.truth[q], 0); err != nil {
			return err
		}
	}
	cs0, _ := rig.est.CacheStats()
	c0 := rig.srv.Counters()
	m0 := readMem()
	from := time.Since(tr.epoch).Nanoseconds()
	res, err := rig.servePhase(pool, poolPaths, o, serveLowRate, cfg.budget(0.4), cfg.Seed)
	if err != nil {
		return err
	}
	to := time.Since(tr.epoch).Nanoseconds()
	m1 := readMem()
	c1 := rig.srv.Counters()
	cs1, _ := rig.est.CacheStats()
	rep.countOpen(res)

	spans := tr.snapshot()
	dp, dt := windowed(plain.Sojourns, phaseWindows), windowed(res.Sojourns, phaseWindows)
	rep.sample("untraced sojourn_ms", dp)
	rep.sample("traced sojourn_ms", dt)
	rep.layer("trace.overhead_pct", 100*(dt.P50-dp.P50)/dp.P50)
	// The sojourn splits, per request, into the wait to send (the
	// arrival's self time, spent in the load generator), the transport
	// (the request's self time) and the handler. The two program layers
	// are checked against the round trip, the sojourn minus the wait.
	handler := summarize(durationsUs(spans, "serve.handler", from, to))
	transport := summarize(selfTimesUs(spans, "load.request", from, to))
	wait := summarize(selfTimesUs(spans, "load.arrival", from, to))
	roundTrip := summarize(durationsUs(spans, "load.request", from, to))
	rep.sample("serve.handler_us", handler)
	rep.sample("serve.transport_us", transport)
	rep.sample("load.wait_us (due time to send)", wait)
	rep.sample("round_trip_us (sojourn minus wait)", roundTrip)
	rep.layer("serve.handler_us.p50", handler.P50)
	rep.layer("serve.handler_us.p99", handler.Tail)
	rep.layer("serve.transport_us.p50", transport.P50)
	rep.layer("load.wait_us.p50", wait.P50)
	rep.layer("serve.accounted_share", (handler.P50+transport.P50)/roundTrip.P50)
	rep.layer("load.gen_late_ms.p99", summarize(res.LateMs).Tail)
	rep.layer("load.backlog_max", float64(res.BacklogMax))

	nq := float64(max(c1.Requests-c0.Requests, 1))
	rep.layer("sched.tasks_per_query", float64(c1.SchedTasks-c0.SchedTasks)/nq)
	rep.layer("sched.steals_per_query", float64(c1.SchedSteals-c0.SchedSteals)/nq)
	rep.layer("sched.parks_per_query", float64(c1.SchedParks-c0.SchedParks)/nq)
	cacheLayer(rep, cs0, cs1, nq)
	rep.layer("runtime.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6)

	// pathsel, called directly over the pool: compile every query, and
	// execute it against the warm cache (a whole-query hit).
	if err := pathselDirect(rep, tr, rig.est, pool, o, cfg.budget(0.1)); err != nil {
		return err
	}
	var concrete []paths.Path
	for _, p := range poolPaths {
		if len(p) >= 2 && len(concrete) < 64 {
			concrete = append(concrete, p)
		}
	}
	if err := probePlans(rep, tr, in, rig.est, concrete, o, serveWorkers); err != nil {
		return err
	}
	return probeLayers(rep, tr, in, serveK, serveBeta, serveWorkers)
}

// cacheLayer reports the relation cache's traffic between two snapshots.
func cacheLayer(rep *report, a, b pathsel.CacheStats, queries float64) {
	hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	rep.layer("relcache.hit_rate", hits/math.Max(hits+misses, 1))
	rep.layer("relcache.hits_per_put", hits/math.Max(float64(b.Puts-a.Puts), 1))
	rep.layer("relcache.evictions_per_query", float64(b.Evictions-a.Evictions)/queries)
	rep.layer("relcache.rejected", float64(b.Rejected-a.Rejected))
	rep.layer("relcache.lock_wait_us", float64(b.LockWaitNs-a.LockWaitNs)/1e3)
}

// pathselDirect times Compile and Execute on every query of the pool for
// about d, checking each answer, and reports the pathsel layer.
func pathselDirect(rep *report, tr *tracer, est *pathsel.Estimator, pool []string, o *oracle, d time.Duration) error {
	var compile, execute []float64
	var calls int
	var work int64
	m0 := readMem()
	for start := time.Now(); calls < len(pool) || time.Since(start) < d; {
		for _, q := range pool {
			var x *pathsel.Expr
			var err error
			compile = append(compile, us(tr.timed("pathsel.compile", func() { x, err = est.Compile(q) })))
			if err != nil {
				return fmt.Errorf("compile %q: %w", q, err)
			}
			var st pathsel.ExecStats
			execute = append(execute, us(tr.timed("pathsel.execute", func() { st, err = x.Execute() })))
			if err != nil || st.Result != o.truth[q] {
				return fmt.Errorf("execute %q: %d pairs, oracle %d, err %v", q, st.Result, o.truth[q], err)
			}
			work += st.Work
			calls++
		}
	}
	m1 := readMem()
	dc, de := summarize(compile), summarize(execute)
	rep.sample("pathsel.compile_us", dc)
	rep.sample("pathsel.execute_us", de)
	rep.layer("pathsel.compile_us.p50", dc.P50)
	rep.layer("pathsel.execute_us.p50", de.P50)
	rep.layer("pathsel.execute_us.p99", de.Tail)
	rep.layer("pathsel.allocs_per_query", float64(m1.mallocs-m0.mallocs)/float64(calls))
	rep.layer("exec.work_pairs_per_query", float64(work)/float64(calls))
	return nil
}
