package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields in
// /proc/<pid>/stat. It has been 100 on every Linux architecture Go
// supports since 2.6, and no stdlib call exposes sysconf.
const clockTick = 10 * time.Millisecond

// cpuTimes is a process's cumulative CPU time as /proc reports it.
type cpuTimes struct {
	User, Sys time.Duration
}

func (c cpuTimes) total() time.Duration { return c.User + c.Sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{User: c.User - o.User, Sys: c.Sys - o.Sys}
}

// parseStat extracts utime and stime (fields 14 and 15) from the text
// of /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStat(text string) (cpuTimes, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("stat: stime: %w", err)
	}
	return cpuTimes{User: time.Duration(ut) * clockTick, Sys: time.Duration(st) * clockTick}, nil
}

// procStatus holds the fields read from /proc/<pid>/status.
type procStatus struct {
	VmHWMKB     int64 // peak resident set, kB
	CtxSwitches int64 // voluntary + involuntary, of this task alone
}

// parseStatus extracts the peak RSS and the context-switch counts from
// the text of a /proc status file. Kernel threads have no VmHWM line;
// it then stays 0.
func parseStatus(text string) (procStatus, error) {
	var s procStatus
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch key {
		case "VmHWM":
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
			if err != nil {
				return s, fmt.Errorf("status: VmHWM: %w", err)
			}
			s.VmHWMKB = n
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return s, fmt.Errorf("status: %s: %w", key, err)
			}
			s.CtxSwitches += n
			seen++
		}
	}
	if seen != 2 {
		return s, fmt.Errorf("status: found %d of 2 ctxt_switches lines", seen)
	}
	return s, nil
}

// readCPU reads the cumulative CPU time of process pid.
func readCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	return parseStat(string(b))
}

// readPeakRSSMB reads the peak resident set of process pid in MB.
func readPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	s, err := parseStatus(string(b))
	if err != nil {
		return 0, err
	}
	return float64(s.VmHWMKB) / 1024, nil
}

// sumThreads applies parse to /proc/<pid>/task/*/<file> and sums the
// results: the per-process files count the main thread alone, and a
// Go server does its work on the others.
func sumThreads(pid int, file string, parse func(text string) (int64, error)) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/%s", pid, file))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no tasks under /proc/%d: %v", pid, err)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		n, err := parse(string(b))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// readCtxSwitches sums the context switches of every thread of pid.
func readCtxSwitches(pid int) (int64, error) {
	return sumThreads(pid, "status", func(text string) (int64, error) {
		s, err := parseStatus(text)
		return s.CtxSwitches, err
	})
}

// parseSchedstat extracts the on-CPU time, in nanoseconds, from the
// text of a /proc schedstat file: its first field.
func parseSchedstat(text string) (time.Duration, error) {
	f := strings.Fields(text)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields in %q, want 3", len(f), text)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: run time: %w", err)
	}
	return time.Duration(ns), nil
}

// readOnCPU sums the on-CPU time of every thread of pid from
// schedstat. Unlike the 10 ms ticks of stat it resolves nanoseconds,
// which a 100 ms slice needs; it does not split user from system.
func readOnCPU(pid int) (time.Duration, error) {
	ns, err := sumThreads(pid, "schedstat", func(text string) (int64, error) {
		d, err := parseSchedstat(text)
		return int64(d), err
	})
	return time.Duration(ns), err
}
