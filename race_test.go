//go:build race

package arbloop_test

// raceEnabled reports that the race detector instruments this build. It
// slows memory accesses several-fold and unevenly, so a wall-clock bar
// read under it measures the instrumentation, not the code: those bars
// skip.
const raceEnabled = true
