package memctrl

import (
	"math/rand/v2"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

func TestBLForOTFChop(t *testing.T) {
	otf := dram.MustSpeed(dram.DDR3, 667)
	if bl := blFor(otf, 3); bl != 4 {
		t.Errorf("OTF remaining 3 -> BL%d, want BC4", bl)
	}
	if bl := blFor(otf, 5); bl != 8 {
		t.Errorf("OTF remaining 5 -> BL%d, want BL8", bl)
	}
	fixed := dram.MustSpeed(dram.DDR2, 333).WithDeviceBL(4)
	if bl := blFor(fixed, 2); bl != 4 {
		t.Errorf("fixed mode remaining 2 -> BL%d, want the mode BL", bl)
	}
}

func TestOOORespectsSameBankOrder(t *testing.T) {
	// Two requests to the same bank with different rows must not reorder
	// even under the stage-skipping engine, or the second would steal the
	// first's page.
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	s := NewSimple(dev, OpenPage, 8, func(c Completion) { done = append(done, c) })
	a := req(1, 0, 1, 0, noc.Read, 8, false)
	b := req(2, 0, 2, 0, noc.Read, 8, false) // same bank, conflicting row
	c := req(3, 1, 1, 0, noc.Read, 8, false) // different bank: may overtake b
	drive(t, s, []*noc.Packet{a, b, c}, &done, 2000)
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	posOf := func(id int64) int {
		for i, d := range done {
			if d.Pkt.ID == id {
				return i
			}
		}
		return -1
	}
	if posOf(2) < posOf(1) {
		t.Error("same-bank requests reordered")
	}
	if posOf(3) > posOf(2) {
		t.Error("the different-bank request should overtake the conflicting one")
	}
}

func TestEngineBlocksAdmissionDuringRefresh(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR1, 133) // tREFI 1036
	dev := dram.MustNewDevice(tm)
	s := NewSimple(dev, OpenPage, 4, func(Completion) {})
	// Idle past the refresh deadline.
	for now := int64(0); now < tm.TREFI+2; now++ {
		s.Tick(now)
	}
	if !s.eng.refreshing && dev.Stats().Refreshes == 0 {
		t.Fatal("refresh neither pending nor performed at the deadline")
	}
	// Within a handful of cycles the refresh completes and admission
	// reopens.
	now := tm.TREFI + 2
	for ; now < tm.TREFI+200; now++ {
		s.Tick(now)
		if !s.eng.refreshing {
			break
		}
	}
	if s.eng.refreshing {
		t.Fatal("admission never reopened after refresh")
	}
	if dev.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", dev.Stats().Refreshes)
	}
	if !s.Offer(req(1, 0, 1, 0, noc.Read, 8, false), now) {
		t.Fatal("offer refused after refresh completed")
	}
}

func TestMemMaxDataBufferBound(t *testing.T) {
	// The per-thread data buffer (32 flits) admits one long write but not
	// two; a second request queues only once the first drains.
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	m := NewMemMax(dev, MemMaxConfig{PipelineDepth: 1}, func(Completion) {})
	long1 := req(1, 0, 1, 0, noc.Write, 128, false)
	long1.Class = noc.ClassMedia
	long1.SrcCore = 0
	long2 := req(2, 0, 2, 0, noc.Write, 128, false)
	long2.Class = noc.ClassMedia
	long2.SrcCore = 0
	if !m.Offer(long1, 0) {
		t.Fatal("empty thread must accept even an oversized packet")
	}
	if m.Offer(long2, 0) {
		t.Fatal("second 64-flit write must not fit a 32-flit data buffer")
	}
	short := req(3, 1, 1, 0, noc.Read, 8, false)
	short.Class = noc.ClassDemand
	if !m.Offer(short, 0) {
		t.Fatal("other threads must be unaffected")
	}
}

func TestClosedPagePolicyAPsEverything(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	s := NewSimple(dev, ClosedPage, 4, func(c Completion) { done = append(done, c) })
	pkts := []*noc.Packet{
		req(1, 0, 1, 0, noc.Write, 8, false), // untagged: closed page APs anyway
		req(2, 1, 1, 0, noc.Write, 8, false),
	}
	drive(t, s, pkts, &done, 2000)
	st := dev.Stats()
	if st.AutoPre != 2 || st.Precharges != 0 {
		t.Fatalf("closed page: ap=%d pre=%d, want 2/0", st.AutoPre, st.Precharges)
	}
}

// TestEngineStampsRequestRowOnEveryCommand: the device is row-addressed
// in every mode, so each ACT/RD/WR/PRE the engine issues must carry the
// row of the request it serves — on the classic DDR3 bank as on DDR4
// with four subarray row buffers. Refresh is pushed out of the run so
// every command belongs to a request.
func TestEngineStampsRequestRowOnEveryCommand(t *testing.T) {
	for _, tm := range []dram.Timing{
		dram.MustSpeed(dram.DDR3, 800),
		dram.MustSpeed(dram.DDR4, dram.DefaultClock(dram.DDR4)).WithSubarrays(4),
	} {
		tm.TREFI = 1 << 40
		dev := dram.MustNewDevice(tm)
		// rows[bank] is the set of rows some request addresses in the bank.
		rows := map[int]map[int]bool{}
		var pkts []*noc.Packet
		for i := 0; i < 48; i++ {
			bank, row := i%3, (i*7)%5 // conflicts, hits and subarray siblings
			kind := noc.Read
			if i%4 == 0 {
				kind = noc.Write
			}
			pkts = append(pkts, req(int64(i+1), bank, row, 8*(i%4), kind, 16, i%5 == 0))
			if rows[bank] == nil {
				rows[bank] = map[int]bool{}
			}
			rows[bank][row] = true
		}
		seen := map[dram.CmdKind]int{}
		open := map[[2]int]bool{} // (bank, row) pairs activated and not yet closed
		dev.Observer = func(now int64, cmd dram.Command, _ dram.DataWindow) {
			seen[cmd.Kind]++
			if !rows[cmd.Bank][cmd.Row] {
				t.Errorf("%s cycle %d: %s names bank %d row %d, which no request addresses",
					tm.Generation, now, cmd.Kind, cmd.Bank, cmd.Row)
			}
			switch cmd.Kind {
			case dram.CmdActivate:
				open[[2]int{cmd.Bank, cmd.Row}] = true
			case dram.CmdRead, dram.CmdWrite:
				if !open[[2]int{cmd.Bank, cmd.Row}] {
					t.Errorf("%s cycle %d: %s to bank %d row %d, which is not the activated row",
						tm.Generation, now, cmd.Kind, cmd.Bank, cmd.Row)
				}
				if cmd.AutoPrecharge {
					delete(open, [2]int{cmd.Bank, cmd.Row})
				}
			case dram.CmdPrecharge:
				// PRE names the row that needs the buffer; it closes whichever
				// row shares that buffer.
				for k := range open {
					if k[0] == cmd.Bank && k[1]%tm.RowBuffers() == cmd.Row%tm.RowBuffers() {
						delete(open, k)
					}
				}
			}
		}
		var done []Completion
		s := NewSimple(dev, PartialOpenPage, 8, func(c Completion) { done = append(done, c) })
		drive(t, s, pkts, &done, 20_000)
		if len(done) != len(pkts) {
			t.Fatalf("%s: %d/%d requests completed", tm.Generation, len(done), len(pkts))
		}
		for _, k := range []dram.CmdKind{dram.CmdActivate, dram.CmdRead, dram.CmdWrite, dram.CmdPrecharge} {
			if seen[k] == 0 {
				t.Errorf("%s: no %s issued; the stream does not cover it (%v)", tm.Generation, k, seen)
			}
		}
	}
}

// TestEngineBoundsSkipHeldRequests: a request the command buffers would
// pass over contributes no bound to nextEvent. In both cases a younger
// request's row is open and its column command is legal at once — a
// bound of now+1 if it counted — but it is held behind an older request
// whose own next command is cycles away; the engine sleeps until that
// one, and ticking only at the bound issues it there.
func TestEngineBoundsSkipHeldRequests(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	for _, tc := range []struct {
		name  string
		ooo   bool
		older *noc.Packet
		// bound is the older request's next command after the first tick.
		bound func(dev *dram.Device, now int64) int64
	}{
		// Stage-skipping: the older request conflicts with the open row of
		// the buffer both need (a precharge after write recovery); the
		// younger one hits that open row but may not overtake it.
		{"same buffer behind a conflict", true, req(2, 0, 1, 0, noc.Write, 8, false),
			func(dev *dram.Device, now int64) int64 { return dev.RowPrechargeReadyAt(0, 1, now) }},
		// In order: the older request activates another bank in the first
		// tick and waits out tRCD; the younger one's row is open, but only
		// the oldest request's column command is considered.
		{"in order behind the head", false, req(2, 1, 1, 0, noc.Write, 8, false),
			func(dev *dram.Device, now int64) int64 { return dev.RowColumnReadyAt(1, 1, dram.CmdWrite, now) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := dram.MustNewDevice(tm)
			e := newEngine(dev, OpenPage, 4, func(Completion) {})
			e.ooo = tc.ooo
			// Open row 2 of bank 0 with a write and let it retire.
			e.admit(req(1, 0, 2, 0, noc.Write, 8, false))
			now := int64(0)
			for ; e.busy(); now++ {
				e.tick(now)
			}
			e.admit(tc.older)
			e.admit(req(3, 0, 2, 8, noc.Write, 8, false))
			e.tick(now)
			if len(e.inflight) != 2 {
				t.Fatalf("%d requests in flight after the first tick, want both", len(e.inflight))
			}
			if at := dev.RowColumnReadyAt(0, 2, dram.CmdWrite, now); at > now+1 {
				t.Fatalf("the held request's column command is not ready until %d: it would not pull the bound to %d", at, now+1)
			}
			want := tc.bound(dev, now)
			if want <= now+1 {
				t.Fatalf("the older request's next command is ready at %d: nothing to sleep through from %d", want, now)
			}
			if got := e.nextEvent(now); got != want {
				t.Fatalf("nextEvent(%d) = %d, want the older request's bound %d", now, got, want)
			}
			cmds := func() int64 { s := dev.Stats(); return s.Activates + s.Reads + s.Writes + s.Precharges }
			before := cmds()
			e.tick(want)
			if cmds() != before+1 {
				t.Fatalf("the tick at the bound %d issued %d commands, want 1", want, cmds()-before)
			}
		})
	}
}

// TestEngineOrderFlagsMatchScan: the order flags mark keeps by hand
// equal a fresh scan of the older inflight requests after every admit
// and tick, in order and stage-skipping, on the classic DDR3 bank and on
// DDR4 with four subarray row buffers. A random stream over few banks
// and rows fills the window with shared buffers, hazards and subarray
// siblings, and drains it out of order.
func TestEngineOrderFlagsMatchScan(t *testing.T) {
	for _, tm := range []dram.Timing{
		dram.MustSpeed(dram.DDR3, 800),
		dram.MustSpeed(dram.DDR4, dram.DefaultClock(dram.DDR4)).WithSubarrays(4),
	} {
		for _, ooo := range []bool{false, true} {
			e := newEngine(dram.MustNewDevice(tm), PartialOpenPage, 8, func(Completion) {})
			e.ooo = ooo
			rng := rand.New(rand.NewPCG(7, uint64(tm.Generation)))
			var shared, hazard int
			check := func(now int64, what string) {
				t.Helper()
				for i, r := range e.inflight {
					var wantShared, wantHazard bool
					for _, o := range e.inflight[:i] {
						if o.pkt.Addr.Bank == r.pkt.Addr.Bank && tm.SubarrayOf(o.pkt.Addr.Row) == tm.SubarrayOf(r.pkt.Addr.Row) {
							wantShared = true
							wantHazard = wantHazard || o.pkt.Addr.Row != r.pkt.Addr.Row
						}
					}
					if r.shared != wantShared || r.hazard != wantHazard {
						t.Fatalf("%s ooo=%v cycle %d after %s: inflight[%d] shared=%v hazard=%v, a scan says %v/%v",
							tm.Generation, ooo, now, what, i, r.shared, r.hazard, wantShared, wantHazard)
					}
					if r.shared {
						shared++
					}
					if r.hazard {
						hazard++
					}
				}
			}
			id := int64(0)
			for now := int64(0); now < 20_000; now++ {
				for e.canAdmit() && rng.IntN(3) == 0 {
					id++
					kind := noc.Read
					if rng.IntN(3) == 0 {
						kind = noc.Write
					}
					e.admit(req(id, rng.IntN(3), rng.IntN(6), 8*rng.IntN(4), kind, 4+4*rng.IntN(4), rng.IntN(2) == 0))
					check(now, "admit")
				}
				e.tick(now)
				check(now, "tick")
			}
			if shared == 0 || hazard == 0 || id < 500 {
				t.Errorf("%s ooo=%v: %d requests, %d shared and %d hazard flags seen; the stream does not exercise them",
					tm.Generation, ooo, id, shared, hazard)
			}
		}
	}
}
