//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation changes heap
// allocation counts.
const raceEnabled = true
