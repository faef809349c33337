// Package exutil holds the scaffolding shared by the runnable examples,
// so each main.go stays focused on the experiment it demonstrates.
package exutil

import "flag"

// Cycles parses the example's command line and returns its per-run
// simulation budget: -cycles, 150,000 by default (the test harness
// shortens the runs with it). Call it once, first thing in main.
func Cycles() int64 {
	n := flag.Int64("cycles", 150_000, "simulated cycles per run")
	flag.Parse()
	return *n
}
