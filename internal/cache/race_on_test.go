//go:build race

package cache

// raceEnabled reports whether the Go race detector instruments this build.
// The allocation tests skip under -race: its runtime allocates shadow
// bookkeeping on paths that are allocation-free in a plain build.
const raceEnabled = true
