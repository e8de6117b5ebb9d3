//go:build race

package graphapi

// raceEnabled reports whether the race detector is active; its
// instrumentation (sync.Pool drops items at random) makes allocation
// counts meaningless, so the allocation test skips.
const raceEnabled = true
