//go:build !race

package cache

// raceEnabled reports whether the Go race detector instruments this build.
const raceEnabled = false
