//go:build !race

package group

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget gates skip under -race (instrumentation allocates).
const raceEnabled = false
