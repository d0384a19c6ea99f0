package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are CPU times, not wall times. A vCPU the
// hypervisor takes away advances no CPU clock, so the steal of a shared
// host does not count; on an unshared CPU a thread's CPU time equals
// its wall time while it computes.

// threadCPU is the CPU time of the calling thread, which must be
// locked to it. The capacity and cluster workloads and every set-up
// run on one goroutine and are timed with it. The garbage collector's
// background work on other threads does not count; its assists on this
// thread do.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time of every thread of the process. The serve
// workload's closed loop, whose clients and service run on many
// goroutines, is timed with it.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("benchmark: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
