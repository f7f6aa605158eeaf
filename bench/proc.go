package main

import (
	"os"
	"runtime"
	"syscall"
	"time"
)

// rssMB converts ru_maxrss to MB: Linux reports kilobytes, Darwin bytes.
func rssMB(maxrss int64) float64 {
	if runtime.GOOS == "darwin" {
		return float64(maxrss) / 1e6
	}
	return float64(maxrss) / 1e3
}

// selfUsage returns this process's peak resident set and CPU time so far.
func selfUsage() (peakRSSMB float64, cpu time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rssMB(int64(ru.Maxrss)), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childUsage returns an exited child's peak resident set and CPU time.
func childUsage(ps *os.ProcessState) (peakRSSMB float64, cpu time.Duration) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, ps.UserTime() + ps.SystemTime()
	}
	return rssMB(int64(ru.Maxrss)), ps.UserTime() + ps.SystemTime()
}
