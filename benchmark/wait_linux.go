package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a timerfd registered with Go's network poller: the
// wait releases the goroutine's scheduler slot like any blocked read,
// and wakes within tens of microseconds. Go's own timers wake with
// millisecond granularity on an idle process, far too coarse for
// sub-millisecond arrival gaps, and a thread sleep would hold the slot.
type sleeper struct {
	f  *os.File
	fd uintptr
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks the calling goroutine for d.
func (s *sleeper) sleep(d time.Duration) error {
	// struct itimerspec{it_interval, it_value}, one-shot and relative.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := s.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (s *sleeper) close() error { return s.f.Close() }
