// Granularity: the paper's Fig. 2 effect, measured end to end.
//
// A video codec requests 8 bytes (two beats on the 32-bit bus) but a
// DDR2 device in BL8 mode always moves 16 bytes per column command — the
// access granularity mismatch. This example runs the same traffic through
// the GSS design (BL8 device) and the GSS+SAGM design (BL4 device,
// auto-precharge, split packets) and reports how many of the transferred
// beats each design threw away, plus what that does to latency.
//
//	go run ./examples/granularity [-cycles N]
package main

import (
	"fmt"
	"log"

	"aanoc"
	"aanoc/examples/internal/exutil"
)

func main() {
	cycles := exutil.Cycles()
	fmt.Println("Access granularity mismatch (paper Fig. 2): single DTV on DDR2")
	fmt.Printf("%-10s %8s %9s %9s %10s %9s\n", "design", "util", "useful", "waste", "lat(all)", "served")
	for _, d := range []aanoc.Design{aanoc.GSS, aanoc.GSSSAGM} {
		res, err := aanoc.Run(aanoc.Config{
			Model:      aanoc.AppSDTV,
			Generation: 2,
			Design:     d,
			Cycles:     cycles,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.3f %9.3f %8.1f%% %10.0f %9d\n",
			d, res.Utilization, res.Utilization*(1-res.WasteFrac),
			100*res.WasteFrac, res.LatAll, res.Completed)
	}
	fmt.Println("\nThe BL8 design over-fetches for every sub-granularity request;")
	fmt.Println("SAGM's BL4 mode with auto-precharge moves almost only useful data.")
}
