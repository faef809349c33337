// Quickstart: run the paper's headline comparison on one configuration.
//
// The Blu-ray application model (eight cores sharing one DDR2 SDRAM
// through a 3x3 mesh, CPU demand requests served as priority packets) is
// simulated under the four designs of the paper's Table II, printing the
// three metrics the paper reports: memory utilization, average memory
// latency of all packets and average latency of the priority (demand)
// packets.
//
//	go run ./examples/quickstart [-cycles N]
package main

import (
	"fmt"
	"log"

	"aanoc"
	"aanoc/examples/internal/exutil"
)

func main() {
	cycles := exutil.Cycles()
	designs := []aanoc.Design{
		aanoc.ConvPFS,       // conventional NoC + MemMax, priority-first
		aanoc.SDRAMAwarePFS, // SDRAM-aware NoC [4], priority-first
		aanoc.GSS,           // the paper's hybrid GSS router
		aanoc.GSSSAGM,       // GSS + access granularity matching
	}
	fmt.Println("Blu-ray model, DDR2-533 device at 266 MHz, priority demand requests")
	fmt.Printf("%-14s %8s %10s %12s\n", "design", "util", "lat(all)", "lat(priority)")
	var base aanoc.Result
	for i, d := range designs {
		res, err := aanoc.Run(aanoc.Config{
			Model:          aanoc.AppBluRay,
			Generation:     2,
			Design:         d,
			PriorityDemand: true,
			Cycles:         cycles,
		})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = res
		}
		fmt.Printf("%-14s %8.3f %10.0f %12.0f\n", d, res.Utilization, res.LatAll, res.LatPriority)
		if i == len(designs)-1 {
			fmt.Printf("\nGSS+SAGM vs CONV+PFS: %.1f%% shorter overall latency, %.1f%% shorter priority latency\n",
				100*(1-res.LatAll/base.LatAll), 100*(1-res.LatPriority/base.LatPriority))
		}
	}
}
