//go:build race

package core

// raceEnabled reports that the race detector is active; allocation
// counts are skipped because its instrumentation allocates.
const raceEnabled = true
