//go:build !race

// Package testenv tells tests what they are running under. The race
// detector's runtime allocates on synchronization paths, empties
// sync.Pools at random and slows instrumented loops unevenly, so
// allocation-count and wall-clock-share assertions only hold
// without it.
package testenv

// Race reports that the race detector is instrumenting this build.
const Race = false
