//go:build race

package gc

// Under the race detector sync.Pool drops a random share of its Puts, so a
// collection may find no pooled run and allocate one.
const raceEnabled = true
