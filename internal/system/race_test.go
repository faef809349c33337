//go:build race

package system

// raceEnabled: under the race detector the pools' free lists grow in
// more steps, so a whole run's allocation count is not the one pinned.
const raceEnabled = true
