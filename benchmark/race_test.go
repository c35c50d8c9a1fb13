//go:build race

package main

// Under the race detector the server is an order of magnitude slower and
// misses the workload's 100 ms deadlines, so the self-check leaves serve out.
const raceEnabled = true
