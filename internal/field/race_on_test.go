//go:build race

package field

const raceEnabled = true
