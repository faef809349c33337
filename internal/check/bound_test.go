package check

import (
	"fmt"
	"strings"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
)

func TestDPQBoundShape(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	b := NewDPQBound(tm, 4, 32)
	if s8, s32 := b.Service(8), b.Service(32); s32 <= s8 {
		t.Errorf("Service must grow with beats: S(8)=%d S(32)=%d", s8, s32)
	}
	d1 := b.Deadline(100, 1, 0, 8)
	d2 := b.Deadline(100, 2, 0, 8)
	d3 := b.Deadline(100, 1, 3, 8)
	if d2 <= d1 || d3 <= d1 {
		t.Errorf("Deadline must grow with queue position and occupancy: %d %d %d", d1, d2, d3)
	}
	if d1 <= 100 {
		t.Errorf("deadline %d must lie after admission", d1)
	}
	// A deep queue position folds in extra refresh windows.
	deep := b.Deadline(0, 30, 0, 8)
	if deep < 30*4*b.Service(32) {
		t.Errorf("deep deadline %d undercuts raw interference", deep)
	}
}

// TestDPQBoundRefreshFixedPoint: the deadline's interval is the refresh
// fixed point itself, not an iterate short of it, at every speed grade
// of every generation, and a refresh costs less than tREFI, which is
// what ends Deadline's loop.
func TestDPQBoundRefreshFixedPoint(t *testing.T) {
	for _, g := range dram.Generations() {
		for _, mhz := range dram.Speeds(g) {
			tm := dram.MustSpeed(g, mhz)
			for _, n := range []int{8, 16, 32} {
				b := NewDPQBound(tm, n, 128)
				cost := b.refreshCost()
				if cost >= tm.TREFI {
					t.Fatalf("%v-%d: refresh cost %d >= tREFI %d", g, mhz, cost, tm.TREFI)
				}
				for pos := 1; pos <= 32; pos++ {
					for occ := 0; occ <= 1; occ++ {
						base := int64(pos*n-1+occ)*b.Service(128) + b.Service(8) + boundMargin
						total := b.Deadline(0, pos, occ, 8)
						if want := base + (total/tm.TREFI+2)*cost; total != want {
							t.Fatalf("%v-%d N=%d pos=%d occ=%d: interval %d, one more pass gives %d",
								g, mhz, n, pos, occ, total, want)
						}
					}
				}
			}
		}
	}
}

// TestDPQBoundHoldsUnderLoad drives the real arbiter at full tilt and
// asserts no completion ever crosses its analytic deadline — the bound
// is sound against the implementation it models.
func TestDPQBoundHoldsUnderLoad(t *testing.T) {
	for _, gen := range []struct {
		g   dram.Generation
		mhz int
	}{{dram.DDR1, 200}, {dram.DDR2, 333}, {dram.DDR3, 667}} {
		tm := dram.MustSpeed(gen.g, gen.mhz)
		dev := dram.MustNewDevice(tm)
		const n, maxBeats = 4, 32
		var c Checker
		mon := NewDPQMonitor(&c, NewDPQBound(tm, n, maxBeats), "")
		d := memctrl.NewDPQ(dev, memctrl.DPQConfig{Requestors: n},
			func(memctrl.Completion) {})
		d.OnAdmit = mon.Admit
		d.OnComplete = mon.Complete
		// Adversarial stream: every request conflicts in one bank, mixed
		// directions, mixed sizes up to maxBeats.
		var pkts []*noc.Packet
		for i := int64(0); i < 48; i++ {
			beats := 8
			if i%3 == 0 {
				beats = maxBeats
			}
			p := &noc.Packet{
				ID: i + 1, ParentID: i + 1, Kind: noc.Kind(i % 2), Class: noc.ClassMedia,
				Addr:  dram.Address{Bank: 0, Row: int(i), Col: 0},
				Beats: beats, Flits: noc.FlitsForBeats(beats), Splits: 1,
			}
			p.SrcCore = int(i) % n
			pkts = append(pkts, p)
		}
		i := 0
		for now := int64(0); now < 200000; now++ {
			for i < len(pkts) && d.Offer(pkts[i], now) {
				i++
			}
			d.Tick(now)
			if i == len(pkts) && !d.Busy() {
				break
			}
		}
		if d.Busy() {
			t.Fatalf("%v-%d: arbiter did not drain", gen.g, gen.mhz)
		}
		mon.Flush(200000)
		if vs := c.Violations(); len(vs) != 0 {
			t.Errorf("%v-%d: the bound was crossed: %v", gen.g, gen.mhz, vs)
		}
		if mon.Checked != 48 {
			t.Errorf("%v-%d: checked %d completions, want 48", gen.g, gen.mhz, mon.Checked)
		}
	}
}

func TestDPQMonitorDetectsLateCompletion(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	var c Checker
	mon := NewDPQMonitor(&c, NewDPQBound(tm, 2, 8), "")
	mon.Admit(7, 8, 1, 0, 100)
	dl := mon.B.Deadline(100, 1, 0, 8)
	mon.Complete(7, dl+1)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != "wcet-bound" {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "late by 1") {
		t.Errorf("detail = %q", vs[0].Detail)
	}
}

func TestDPQMonitorFlushReportsStragglers(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	var c Checker
	mon := NewDPQMonitor(&c, NewDPQBound(tm, 2, 8), "")
	mon.Admit(1, 8, 1, 0, 0)
	mon.Admit(2, 8, 1, 0, 1<<40) // deadline beyond the run: legitimate
	mon.Flush(1 << 30)
	if n := c.Count(); n != 1 {
		t.Fatalf("flush violations = %d, want 1 (only the overdue straggler)", n)
	}
}

// TestDPQMonitorFlushOrdersStragglers: the end-of-run report lists the
// overdue requests in ascending ID, whatever order they were admitted in
// — sixty of them, so a walk in map order all but surely comes out
// scrambled (it did: three runs of one checked command printed three
// different reports).
func TestDPQMonitorFlushOrdersStragglers(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	var c Checker
	mon := NewDPQMonitor(&c, NewDPQBound(tm, 2, 8), "")
	const n = 60
	for i := int64(0); i < n; i++ {
		mon.Admit(i*37%n+1, 8, 1, 0, 0) // IDs 1..60, admitted out of order
	}
	mon.Flush(1 << 30)
	vs := c.Violations()
	if len(vs) != n {
		t.Fatalf("flush reported %d stragglers, want %d", len(vs), n)
	}
	for i, v := range vs {
		if want := fmt.Sprintf("request %d still outstanding", i+1); !strings.HasPrefix(v.Detail, want) {
			t.Fatalf("straggler %d reported as %q, want it to start %q", i, v.Detail, want)
		}
	}
}

// TestRegulatorMonitorCatchesDisabledGate is the behavioural mutation:
// a real regulator gating on its 256-beat budget admits past a monitor
// auditing half that under single-bank pressure — the breach a broken
// eligibility gate makes — and the monitor, auditing the budget a
// correct controller would honour, must flag it.
func TestRegulatorMonitorCatchesDisabledGate(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var c Checker
	reg := memctrl.NewRegulator(dev, 2, 8, 4, memctrl.OpenPage, func(memctrl.Completion) {})
	budget := reg.Budget() / 2
	mon := NewRegulatorMonitor(&c, memctrl.RegulatorWindow, budget, "")
	reg.OnAdmit = mon.Admit
	// One core hammers one bank: 32 requests x 8 beats = 256 beats in the
	// first window, all within the regulator's budget and double the
	// monitor's.
	var pkts []*noc.Packet
	for i := int64(0); i < 32; i++ {
		pkts = append(pkts, &noc.Packet{
			ID: i + 1, ParentID: i + 1, Kind: noc.Read, Class: noc.ClassMedia,
			Addr:  dram.Address{Bank: 0, Row: 1, Col: int(i) * 8},
			Beats: 8, Flits: noc.FlitsForBeats(8), Splits: 1,
		})
	}
	i := 0
	for now := int64(0); now < 100_000; now++ {
		for i < len(pkts) && reg.Offer(pkts[i], now) {
			i++
		}
		reg.Tick(now)
		if i == len(pkts) && !reg.Busy() {
			break
		}
	}
	if c.Count() == 0 {
		t.Fatal("monitor missed a regulator admitting past the monitored budget")
	}
	if v := c.Violations()[0]; v.Kind != "regulation-window" {
		t.Errorf("kind = %q", v.Kind)
	}
}

func TestRegulatorMonitorAuditsWindows(t *testing.T) {
	var c Checker
	mon := NewRegulatorMonitor(&c, 1000, 16, "")
	mon.Admit(0, 0, 8, 10)
	mon.Admit(0, 0, 8, 20) // exactly at budget: legal
	if c.Count() != 0 {
		t.Fatalf("within-budget admissions flagged: %v", c.Violations())
	}
	mon.Admit(0, 0, 1, 30) // 17 > 16: breach
	if c.Count() != 1 {
		t.Fatalf("breach not flagged")
	}
	if v := c.Violations()[0]; v.Kind != "regulation-window" {
		t.Errorf("kind = %q", v.Kind)
	}
	// The next window starts a fresh ledger.
	mon.Admit(0, 0, 16, 1500)
	if c.Count() != 1 {
		t.Error("window roll should reset usage")
	}
	// Distinct banks and cores hold independent budgets.
	mon.Admit(1, 0, 16, 1600)
	mon.Admit(0, 1, 16, 1600)
	if c.Count() != 1 {
		t.Errorf("independent (core,bank) pairs flagged: %v", c.Violations())
	}
}
