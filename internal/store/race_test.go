//go:build race

package store

// raceEnabled: the race detector makes sync.Pool drop a share of its
// Puts at random, so Get's pooled read buffer is re-made on some hits.
const raceEnabled = true
