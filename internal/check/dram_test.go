package check

import (
	"strings"
	"testing"

	"aanoc/internal/dram"
)

// kinds collects the Kind fields of every violation in c.
func kinds(c *Checker) []string {
	var out []string
	for _, v := range c.Violations() {
		out = append(out, v.Kind)
	}
	return out
}

func hasKind(c *Checker, kind string) bool {
	for _, v := range c.Violations() {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

// TestMonitorAcceptsDeviceVettedStream is the mirror test: every command
// the real device accepts must also satisfy the monitor's shadow state.
// A deterministic driver walks a candidate list each cycle and issues the
// first command CanIssue approves, exercising ACT/RD/WR/PRE/REF and the
// auto-precharge path across every speed grade of every generation, on
// the classic one-buffer bank (Subarrays 0 and 1) and with 2 and 4
// subarray row buffers.
func TestMonitorAcceptsDeviceVettedStream(t *testing.T) {
	for _, gen := range dram.Generations() {
		for _, mhz := range dram.Speeds(gen) {
			for _, subs := range []int{0, 1, 2, 4} {
				tm := dram.MustSpeed(gen, mhz).WithSubarrays(subs)
				name := gen.String() + "-" + itoa(mhz)
				if subs > 0 {
					name += "-s" + itoa(subs)
				}
				t.Run(name, func(t *testing.T) {
					dev := dram.MustNewDevice(tm)
					var c Checker
					mon := NewDRAMMonitor(&c, tm)
					dev.Observer = mon.Observe

					issued := map[dram.CmdKind]int{}
					// recent holds, per bank, the rows of its latest ACTs (one
					// per row buffer): the rows a CAS or PRE can usefully name.
					recent := make([][]int, tm.Banks)
					row := 0
					for now := int64(0); now < 3000; now++ {
						dev.Sync(now)
						for _, cmd := range candidates(tm, now, row, recent) {
							if dev.CanIssue(cmd, now) {
								if _, err := dev.Issue(cmd, now); err != nil {
									t.Fatalf("cycle %d: device retracted %v: %v", now, cmd, err)
								}
								issued[cmd.Kind]++
								if cmd.Kind == dram.CmdActivate {
									h := append(recent[cmd.Bank], row)
									recent[cmd.Bank] = h[max(0, len(h)-tm.RowBuffers()):]
									row++
								}
								break
							}
						}
					}
					total := 0
					for _, k := range []dram.CmdKind{dram.CmdActivate, dram.CmdRead, dram.CmdWrite, dram.CmdPrecharge} {
						if issued[k] == 0 {
							t.Fatalf("driver never issued a %s; stream too thin to validate (%v)", k, issued)
						}
						total += issued[k]
					}
					if total < 100 {
						t.Fatalf("driver only issued %d commands; stream too thin to validate", total)
					}
					if c.Count() != 0 {
						t.Fatalf("monitor flagged %d violations on a device-vetted stream: %v",
							c.Count(), kinds(&c))
					}
				})
			}
		}
	}
}

// candidates proposes a rotating command mix so different constraint
// paths are stressed at different cycles. RD/WR/PRE name one of the
// bank's recently activated rows, rotating through its row buffers, and
// every 64 cycles one of the two column slots flips direction, so the
// stream has read runs, write runs and mixed stretches: on some grades a
// steady mix lets one direction starve the other behind its turnaround.
func candidates(tm dram.Timing, now int64, row int, recent [][]int) []dram.Command {
	bank := int(now) % tm.Banks
	bl := tm.DeviceBL
	if tm.OTF && now%3 == 0 {
		bl = 4
	}
	ap := now%7 == 0
	rd, wr := dram.CmdRead, dram.CmdWrite
	switch (now / 64) % 3 {
	case 1:
		wr = dram.CmdRead
	case 2:
		rd = dram.CmdWrite
	}
	rowOf := func(bank int) int {
		h := recent[bank]
		if len(h) == 0 {
			return 0
		}
		return h[int(now/5)%len(h)]
	}
	cas := func(kind dram.CmdKind, bank int, ap bool) dram.Command {
		return dram.Command{Kind: kind, Bank: bank, Row: rowOf(bank), BL: bl, AutoPrecharge: ap}
	}
	act := dram.Command{Kind: dram.CmdActivate, Bank: bank, Row: row}
	pre := func(bank int) dram.Command {
		return dram.Command{Kind: dram.CmdPrecharge, Bank: bank, Row: rowOf(bank)}
	}
	switch now % 11 {
	case 0, 1, 2:
		return []dram.Command{cas(rd, bank, ap), act, pre(bank)}
	case 3, 4, 5:
		return []dram.Command{cas(wr, bank, ap), act, cas(rd, (bank+1)%tm.Banks, false)}
	case 6:
		return []dram.Command{{Kind: dram.CmdRefresh}, pre(bank), cas(wr, bank, false)}
	default:
		return []dram.Command{
			act,
			cas(rd, bank, false),
			cas(wr, (bank+2)%tm.Banks, ap),
			pre((bank + 1) % tm.Banks),
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// The hand-driven tests below feed the monitor streams no conformant
// device would produce, isolating one constraint each.

func TestMonitorCatchesTRCD(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 533) // tRCD = 7
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	mon.Observe(0, dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 3}, dram.DataWindow{})
	rd := dram.Command{Kind: dram.CmdRead, Bank: 0, Row: 3, BL: 8}
	w := dram.DataWindow{Start: 5 + tm.CL, End: 5 + tm.CL + dram.BurstCycles(8)}
	mon.Observe(5, rd, w)
	if !hasKind(&c, "tRCD") {
		t.Fatalf("RD 5 cycles after ACT (tRCD=%d) not flagged; got %v", tm.TRCD, kinds(&c))
	}
	if got := kinds(&c); len(got) != 1 {
		t.Fatalf("want the single violation tRCD, got %v", got)
	}
}

// TestMonitorCatchesCASRowMismatch: a column command must name the row
// its buffer holds on the classic one-buffer bank too, not only with
// subarrays — the device refuses it and the monitor flags it
// independently.
func TestMonitorCatchesCASRowMismatch(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 533) // Subarrays = 0
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	dev := dram.MustNewDevice(tm)
	dev.Observer = mon.Observe
	if _, err := dev.Issue(dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 3}, 0); err != nil {
		t.Fatal(err)
	}
	rd := dram.Command{Kind: dram.CmdRead, Bank: 0, Row: 4, BL: 8}
	if dev.CanIssue(rd, tm.TRCD) {
		t.Fatal("device accepted a RD naming row 4 while the bank holds row 3")
	}
	if _, err := dev.Issue(rd, tm.TRCD); err == nil || !strings.Contains(err.Error(), "holds row 3") {
		t.Fatalf("Issue error = %v, want the row-mismatch refusal", err)
	}
	// Fed to the monitor directly (a device that let it through):
	w := dram.DataWindow{Start: tm.TRCD + tm.CL, End: tm.TRCD + tm.CL + dram.BurstCycles(8)}
	mon.Observe(tm.TRCD, rd, w)
	if got := kinds(&c); len(got) != 1 || got[0] != "subarray-row" {
		t.Fatalf("want the single violation subarray-row, got %v", got)
	}
}

func TestMonitorCatchesTFAW(t *testing.T) {
	// Custom grade with tFAW far above 4*tRRD so the fifth ACT violates
	// only the four-activate window.
	tm := dram.MustSpeed(dram.DDR3, 533)
	tm.TFAW = 20
	tm.TRRD = 2
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	for i := int64(0); i < 5; i++ {
		mon.Observe(i*2, dram.Command{Kind: dram.CmdActivate, Bank: int(i), Row: 1}, dram.DataWindow{})
	}
	if !hasKind(&c, "tFAW") {
		t.Fatalf("fifth ACT at cycle 8 inside tFAW=20 window not flagged; got %v", kinds(&c))
	}
	if got := kinds(&c); len(got) != 1 {
		t.Fatalf("want the single violation tFAW, got %v", got)
	}
}

func TestMonitorCatchesBusCollision(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 400) // CL=6, tCCD=2, burst BL8 = 4 cycles
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	mon.Observe(0, dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 0}, dram.DataWindow{})
	issueRD := func(now int64) {
		w := dram.DataWindow{Start: now + tm.CL, End: now + tm.CL + dram.BurstCycles(8)}
		mon.Observe(now, dram.Command{Kind: dram.CmdRead, Bank: 0, BL: 8}, w)
	}
	issueRD(tm.TRCD)     // data [12,16)
	issueRD(tm.TRCD + 2) // data [14,18): overlaps, tCCD satisfied
	if !hasKind(&c, "bus-collision") {
		t.Fatalf("overlapping read bursts not flagged; got %v", kinds(&c))
	}
}

func TestMonitorCatchesAPBookkeeping(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 400)
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	mon.Observe(0, dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 0}, dram.DataWindow{})
	now := tm.TRCD
	w := dram.DataWindow{Start: now + tm.CL, End: now + tm.CL + dram.BurstCycles(8)}
	mon.Observe(now, dram.Command{Kind: dram.CmdRead, Bank: 0, BL: 8, AutoPrecharge: true}, w)
	// A second CAS to the bank while its auto-precharge is pending.
	now += tm.TCCD
	w = dram.DataWindow{Start: now + tm.CL, End: now + tm.CL + dram.BurstCycles(8)}
	mon.Observe(now, dram.Command{Kind: dram.CmdRead, Bank: 0, BL: 8}, w)
	if !hasKind(&c, "AP-pending") {
		t.Fatalf("CAS into pending auto-precharge not flagged; got %v", kinds(&c))
	}
}

func TestMonitorCatchesWrongDataWindow(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 400)
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	mon.Observe(0, dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 0}, dram.DataWindow{})
	now := tm.TRCD
	// Report a window one cycle early — a desynchronized device model.
	w := dram.DataWindow{Start: now + tm.CL - 1, End: now + tm.CL - 1 + dram.BurstCycles(8)}
	mon.Observe(now, dram.Command{Kind: dram.CmdRead, Bank: 0, BL: 8}, w)
	if !hasKind(&c, "data-window") {
		t.Fatalf("mismatched data window not flagged; got %v", kinds(&c))
	}
}

func TestMonitorCatchesCommandBusDoubleIssue(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 400)
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	mon.Observe(0, dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 0}, dram.DataWindow{})
	mon.Observe(0, dram.Command{Kind: dram.CmdActivate, Bank: 1, Row: 0}, dram.DataWindow{})
	if !hasKind(&c, "cmd-bus") {
		t.Fatalf("two commands in one cycle not flagged; got %v", kinds(&c))
	}
}

// TestMonitorCatchesInjectedFault closes the loop with the device's
// mutation hook: a device with FaultSkipTRCD armed accepts an early CAS,
// and the monitor attached as its Observer must flag it.
func TestMonitorCatchesInjectedFault(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 400)
	dev := dram.MustNewDevice(tm)
	dev.InjectFault(dram.FaultSkipTRCD)
	var c Checker
	mon := NewDRAMMonitor(&c, tm)
	dev.Observer = mon.Observe

	if _, err := dev.Issue(dram.Command{Kind: dram.CmdActivate, Bank: 0, Row: 0}, 0); err != nil {
		t.Fatal(err)
	}
	rd := dram.Command{Kind: dram.CmdRead, Bank: 0, BL: 8}
	if !dev.CanIssue(rd, 4) {
		t.Fatal("fault injection did not disarm the device's tRCD check")
	}
	if _, err := dev.Issue(rd, 4); err != nil {
		t.Fatal(err)
	}
	if !hasKind(&c, "tRCD") {
		t.Fatalf("monitor missed the fault-injected early CAS; got %v", kinds(&c))
	}
}
