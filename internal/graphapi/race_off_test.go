//go:build !race

package graphapi

const raceEnabled = false
