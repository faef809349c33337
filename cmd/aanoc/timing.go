package main

import (
	"context"
	"fmt"
	"io"

	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/scenario"
)

const timingUsage = `aanoc timing renders the paper's Fig. 5 as textual timing diagrams from
the live device model: the command-congestion problem of short bursts in
BL4 mode with explicit precharges, and its resolution by auto-precharge.
Command lane mnemonics: A=ACT, R/W=read/write (lowercase when executed
with auto-precharge), P=PRE; data lane: '>' write beats, '<' read beats.

  aanoc timing
  aanoc timing -scenario ap -width 60
`

func timingCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	f := newFlags("timing", timingUsage, stderr, scenario.Run{})
	var (
		panels = f.String("scenario", "both", "pre | ap | both")
		width  = f.Int("width", 72, "diagram width in cycles")
		n      = f.Int("n", 8, "number of single-burst writes")
	)
	if err := f.parse(args); err != nil {
		return err
	}
	if err := oneOf("scenario", *panels, "pre", "ap", "both"); err != nil {
		return err
	}
	if *width < 1 || *n < 1 {
		fmt.Fprintf(f.Output(), "timing: -width and -n must be at least 1 (got -width %d, -n %d)\n", *width, *n)
		return errUsage
	}
	if *panels != "ap" {
		lanes, err := render(memctrl.OpenPage, *width, *n)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Fig. 5(a/b) — BL4 mode, explicit precharges congest the command bus:")
		fmt.Fprintf(stdout, "\n%s\n", lanes)
	}
	if *panels != "pre" {
		lanes, err := render(memctrl.ClosedPage, *width, *n)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Fig. 5(c) — BL4 mode with auto-precharge: no PRE commands, no delay:")
		fmt.Fprintf(stdout, "\n%s", lanes)
	}
	return nil
}

// render drives the paper's lightweight controller over alternating-bank
// single-burst writes under the given page policy and renders the command
// and data lanes.
func render(policy memctrl.PagePolicy, width, n int) (string, error) {
	tm := dram.MustSpeed(dram.DDR2, 333).WithDeviceBL(4)
	dev, err := dram.NewDevice(tm)
	if err != nil {
		return "", err
	}
	var tl dram.Timeline
	tl.Attach(dev)
	ctrl := memctrl.NewSimple(dev, policy, 8, func(memctrl.Completion) {})
	var pkts []*noc.Packet
	for i := 0; i < n; i++ {
		pkts = append(pkts, &noc.Packet{
			ID: int64(i + 1), ParentID: int64(i + 1),
			Kind: noc.Write, Class: noc.ClassMedia,
			Addr:  dram.Address{Bank: i % tm.Banks, Row: i},
			Beats: 4, Flits: 1, Splits: 1, APTag: true,
		})
	}
	i := 0
	for now := int64(0); now < int64(width)*4; now++ {
		for i < len(pkts) && ctrl.Offer(pkts[i], now) {
			i++
		}
		ctrl.Tick(now)
		if i == len(pkts) && !ctrl.Busy() {
			break
		}
	}
	return tl.Render(0, width), nil
}
