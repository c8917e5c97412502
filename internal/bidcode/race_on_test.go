//go:build race

package bidcode

const raceEnabled = true
