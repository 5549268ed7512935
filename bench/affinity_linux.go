package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel cpu_set_t wide enough for 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (uint(c) % 64)
	}
	return m
}

// setAffinity restricts thread tid (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	m := maskOf(cpus)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on, which is what
// nproc prints: a container's cpuset can be narrower than the host.
func allowedCPUs() []int {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(uint(i)%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinProcess restricts every thread of this process to cpus. The
// affinity call is per thread and new threads inherit their creator's
// mask, so two passes over /proc/self/task catch a thread born from a
// not-yet-pinned one during the first.
func pinProcess(cpus []int) error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, cpus); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// startPinned runs start on an OS thread restricted to cpus, so the
// process it forks is born with that mask (and sizes its GOMAXPROCS by
// it), then returns the thread to back.
func startPinned(cpus, back []int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err := start()
	if e := setAffinity(0, back); e != nil && err == nil {
		err = e
	}
	return err
}
