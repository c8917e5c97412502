//go:build race

package dmw

const raceEnabled = true
