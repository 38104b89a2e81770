//go:build race

package wire

// raceEnabled reports a -race build, whose instrumentation adds
// allocations to a decode, and not the same number every run.
const raceEnabled = true
