//go:build race

package sweep

// raceEnabled: the race detector makes sync.Pool drop a share of its
// Puts at random, so Fingerprint's pooled scratch is re-made on some keys.
const raceEnabled = true
