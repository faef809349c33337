// Blu-ray priority: sweep the paper's PCT knob.
//
// The priority control token (PCT) is the heart of the GSS hybrid: a
// priority packet enters the flow controllers holding PCT tokens. PCT=1
// degenerates to the priority-equal SDRAM-aware scheduler of [4]; the
// maximum degenerates to a priority-first scheduler; the paper's hybrid
// sits in between, trading a little overall latency for a lot of priority
// latency. This example sweeps PCT on the Blu-ray model and prints the
// trade-off curve (the ablation behind the paper's Fig. 1(d)).
//
//	go run ./examples/bluray-priority [-cycles N]
package main

import (
	"fmt"
	"log"

	"aanoc"
	"aanoc/examples/internal/exutil"
)

func main() {
	cycles := exutil.Cycles()
	fmt.Println("PCT sweep: Blu-ray on DDR2, demand requests as priority packets")
	fmt.Printf("%4s %8s %10s %12s %12s\n", "PCT", "util", "lat(all)", "lat(priority)", "lat(best)")
	for pct := 1; pct <= 5; pct++ {
		res, err := aanoc.Run(aanoc.Config{
			Model:          aanoc.AppBluRay,
			Generation:     2,
			Design:         aanoc.GSS,
			PCT:            pct,
			PriorityDemand: true,
			Cycles:         cycles,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d %8.3f %10.0f %12.0f %12.0f\n",
			pct, res.Utilization, res.LatAll, res.LatPriority, res.LatBest)
	}
	fmt.Println("\nPCT=1 is the priority-equal scheduler of [4]; PCT=5 is priority-first;")
	fmt.Println("the hybrid values buy priority latency with little best-effort penalty.")
}
