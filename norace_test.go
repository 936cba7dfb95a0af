//go:build !race

package arbloop_test

// raceEnabled reports that the race detector instruments this build (see
// race_test.go).
const raceEnabled = false
