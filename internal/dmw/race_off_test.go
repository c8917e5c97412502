//go:build !race

package dmw

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget gate skips under -race (instrumentation allocates).
const raceEnabled = false
