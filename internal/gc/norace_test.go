//go:build !race

package gc

const raceEnabled = false
