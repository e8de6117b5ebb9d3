//go:build !race

package tracing

const raceEnabled = false
