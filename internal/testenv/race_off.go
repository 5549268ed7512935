//go:build !race

package testenv

// Race reports that the race detector is instrumenting this build. Its
// runtime allocates on synchronization paths, empties sync.Pools at
// random and slows instrumented loops unevenly, so allocation-count
// and wall-clock-share assertions only hold without it.
const Race = false
