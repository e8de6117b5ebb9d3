//go:build race

package tracing

// raceEnabled reports whether the race detector is active; the allocation
// gate is meaningless under its instrumentation and skips.
const raceEnabled = true
