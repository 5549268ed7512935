//go:build race

package testenv

// Race reports that the race detector is instrumenting this build.
const Race = true
