// Dual DTV: the paper's largest system, swept across DDR generations.
//
// The 16-core dual digital-television model (two full video pipelines on
// a 4x4 mesh) is the paper's most congested benchmark. This example runs
// it on all three DDR generations under GSS and GSS+SAGM and shows the
// paper's cross-generation observation: SAGM helps DDR1/DDR2 (BL4 mode
// plus auto-precharge) much more than DDR3, whose tCCD=4 makes the device
// behave like BL8 regardless.
//
//	go run ./examples/dualdtv-sagm [-cycles N]
package main

import (
	"fmt"
	"log"

	"aanoc"
	"aanoc/examples/internal/exutil"
)

func main() {
	cycles := exutil.Cycles()
	fmt.Println("Dual DTV model (4x4 mesh, 15 cores) across DDR generations")
	fmt.Printf("%-5s %5s  %-10s %8s %9s %10s %12s\n", "gen", "MHz", "design", "util", "waste", "lat(all)", "lat(priority)")
	for gen := 1; gen <= 3; gen++ {
		var lat [2]float64
		for i, d := range []aanoc.Design{aanoc.GSS, aanoc.GSSSAGM} {
			res, err := aanoc.Run(aanoc.Config{
				Model:          aanoc.AppDDTV,
				Generation:     gen,
				Design:         d,
				PriorityDemand: true,
				Cycles:         cycles,
			})
			if err != nil {
				log.Fatal(err)
			}
			lat[i] = res.LatAll
			fmt.Printf("DDR%-2d %5d  %-10s %8.3f %8.1f%% %10.0f %12.0f\n",
				gen, res.ClockMHz, d, res.Utilization, 100*res.WasteFrac, res.LatAll, res.LatPriority)
		}
		fmt.Printf("      SAGM latency gain at DDR%d: %.1f%%\n\n", gen, 100*(1-lat[1]/lat[0]))
	}
}
