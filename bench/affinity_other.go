//go:build !linux

package main

import "errors"

var errNoAffinity = errors.New("CPU affinity is only implemented on linux")

func allowedCPUs() []int { return nil }

func pinProcess(cpus []int) error { return errNoAffinity }

func startPinned(cpus, back []int, start func() error) error { return errNoAffinity }
