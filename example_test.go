package aanoc_test

import (
	"fmt"

	"aanoc"
)

// The basic workflow: run one design point and read the paper's metrics.
func ExampleRun() {
	res, err := aanoc.Run(aanoc.Config{
		Model:      aanoc.AppBluRay,
		Generation: 2, // DDR2 at the application's paper clock (266 MHz)
		Design:     aanoc.GSSSAGM,
		Cycles:     30_000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.App, res.Gen, res.ClockMHz)
	fmt.Println(res.Utilization > 0.3, res.Completed > 0)
	// Output:
	// bluray DDR2 266
	// true true
}

// Designs enumerates the seven evaluated design points in the paper's
// naming.
func ExampleDesigns() {
	for _, d := range aanoc.Designs() {
		fmt.Println(d)
	}
	// Output:
	// CONV
	// CONV+PFS
	// [4]
	// [4]+PFS
	// GSS
	// GSS+SAGM
	// GSS+SAGM+STI
}

// ParseDesign accepts both the paper names and lowercase shorthands.
func ExampleParseDesign() {
	a, _ := aanoc.ParseDesign("GSS+SAGM")
	b, _ := aanoc.ParseDesign("sagm")
	fmt.Println(a == b)
	// Output:
	// true
}

// TableIV evaluates the analytic gate-count model (no simulation needed).
func ExampleTableIV() {
	rows := aanoc.TableIV()
	conv, ours := rows[0], rows[2]
	fmt.Printf("saving vs CONV: %.0f%%\n", 100*(1-float64(ours.NoC3x3)/float64(conv.NoC3x3)))
	// Output:
	// saving vs CONV: 33%
}
