package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB,
// falling back to the Go runtime's total obtained memory where /proc is
// absent.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// heapSampler polls the live heap size without stopping the world and
// keeps its peak.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

const heapSample = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapSample}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak
// live heap in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// memSnap is the slice of runtime.MemStats a phase is charged by.
type memSnap struct {
	mallocs, pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}
