//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in nanosleep(2). An idle Go
// runtime waits for timers in epoll_wait, whose timeout is whole
// milliseconds; an open-loop generator sleeping with time.Sleep would
// send most requests up to a millisecond late.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
