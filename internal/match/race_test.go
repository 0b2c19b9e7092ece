//go:build race

package match

const raceEnabled = true
