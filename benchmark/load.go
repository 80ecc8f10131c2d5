package main

// The load generators. Open loop: arrival times come from the trace,
// not from the server; each arrival is due at a fixed time whatever the
// server does, a fixed set of connection workers serves the arrivals in
// order, and every request is charged from its due time, so a stall
// also charges the wait it imposes on later arrivals. The generator
// reports how late it woke and the peak backlog (arrivals due but not
// yet started), neither of which serve.RunLoad reports. Closed loop:
// one caller starts its next operation when the previous one returns.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// missMs is the sojourn charged to a request that failed or was
// answered wrongly: far above any latency, finite so percentile
// interpolation stays defined.
const missMs = 1e9

// openLoopResult is one open-loop phase.
type openLoopResult struct {
	Sojourns   []float64 // ms from due time to answer, missMs for misses
	LateMs     []float64 // how late an idle worker woke for its arrival (0 when it was busy)
	BacklogMax int       // most arrivals due but not yet claimed, sampled at each claim
	Failed     int       // errors, refusals and degraded answers
	Wrong      int       // answers that disagree with the oracle
}

// openLoop replays arrivals due at the given ascending offsets on conns
// workers, which form one FIFO queue: a free worker claims the next
// arrival and, if it is not yet due, waits for it. do(i, dueAt) issues
// arrival i and reports whether the answer was wrong or the request
// failed.
func openLoop(due []time.Duration, conns int, do func(i int, dueAt time.Time) (wrong bool, err error)) (openLoopResult, error) {
	res := openLoopResult{
		Sojourns: make([]float64, len(due)),
		LateMs:   make([]float64, len(due)),
	}
	sleepers := make([]*sleeper, conns)
	for w := range sleepers {
		var err error
		if sleepers[w], err = newSleeper(); err != nil {
			for _, s := range sleepers[:w] {
				s.close()
			}
			return res, err
		}
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var sleepErr error
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(sl *sleeper) {
			defer wg.Done()
			var failed, wrong, backlogMax int
			var err error
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					break
				}
				dueAt := start.Add(due[i])
				now := time.Now()
				elapsed := now.Sub(start)
				backlogMax = max(backlogMax, sort.Search(len(due), func(j int) bool { return due[j] > elapsed })-i)
				if now.Before(dueAt) {
					if err = waitUntil(sl, dueAt); err != nil {
						break
					}
					res.LateMs[i] = float64(time.Since(dueAt).Nanoseconds()) / 1e6
				}
				bad, err := do(i, dueAt)
				switch {
				case err != nil:
					failed++
					res.Sojourns[i] = missMs
				case bad:
					wrong++
					res.Sojourns[i] = missMs
				default:
					res.Sojourns[i] = float64(time.Since(dueAt).Nanoseconds()) / 1e6
				}
			}
			mu.Lock()
			res.Failed += failed
			res.Wrong += wrong
			res.BacklogMax = max(res.BacklogMax, backlogMax)
			if err != nil {
				sleepErr = err
			}
			mu.Unlock()
		}(sleepers[w])
	}
	wg.Wait()
	for _, s := range sleepers {
		s.close()
	}
	return res, sleepErr
}

// waitUntil sleeps until t. A spin for the last microseconds would
// trim the wake-up's lateness but hold a scheduler slot that the
// network poller needs under load.
func waitUntil(sl *sleeper, t time.Time) error {
	if d := time.Until(t); d > 0 {
		return sl.sleep(d)
	}
	return nil
}

// closedResult is one closed-loop phase.
type closedResult struct {
	LatMs         []float64 // per operation, in order
	Failed, Wrong int
}

// closedLoop calls do(i) for its i-th operation as soon as the previous
// one returned, until d has passed.
func closedLoop(d time.Duration, do func(i int) (wrong bool, err error)) closedResult {
	var res closedResult
	for start, i := time.Now(), 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		bad, err := do(i)
		res.LatMs = append(res.LatMs, float64(time.Since(t0).Nanoseconds())/1e6)
		switch {
		case err != nil:
			res.Failed++
		case bad:
			res.Wrong++
		}
	}
	return res
}

// countOpen charges an open-loop phase to the run's totals.
func (rep *report) countOpen(r openLoopResult) {
	rep.Attempted += int64(len(r.Sojourns))
	rep.Failed += int64(r.Failed + r.Wrong)
	rep.Wrong += int64(r.Wrong)
}

// countClosed charges a closed-loop phase to the run's totals.
func (rep *report) countClosed(r closedResult) {
	rep.Attempted += int64(len(r.LatMs))
	rep.Failed += int64(r.Failed + r.Wrong)
	rep.Wrong += int64(r.Wrong)
}
