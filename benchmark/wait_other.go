//go:build !linux

package main

import "time"

// sleeper falls back to Go's timers, which may wake late by up to a
// millisecond; the benchmark reports that lateness as load.gen_late_ms.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (*sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*sleeper) close() error { return nil }
