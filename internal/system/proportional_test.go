package system

import (
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
	"aanoc/internal/traffic"
)

// workCounts is the simulator's own work over a run: kernel component
// ticks (and, of those, the memory side's two components summed over
// the channels), Router.step entries, links Deliver visited, and flits
// forwarded (Σ BusyCycles, the useful router steps); memEvents is what
// the controllers' ticks were for, commands issued plus requests
// retired. All pure functions of (config, seed).
type workCounts struct {
	ticks, admitTicks, memTicks, memEvents int64
	routerSteps, linkVisits, flits         int64
}

func countWork(t *testing.T, cfg Config) workCounts {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RunTo(cfg.Cycles)
	r.Finish()
	w := workCounts{ticks: r.kern.Ticks()}
	for i := range r.chans {
		c := &r.chans[i]
		w.admitTicks += c.hAdmit.Ticks()
		w.memTicks += c.hMem.Ticks()
		st := c.dev.Stats()
		w.memEvents += st.Activates + st.Reads + st.Writes + st.Precharges + st.Refreshes + c.done
	}
	for _, m := range []*noc.Mesh{r.reqMesh, r.respMesh} {
		v, s := m.WorkCounts()
		w.linkVisits += v
		w.routerSteps += s
		eachLink(m, func(_ *noc.Router, _ int, o *noc.OutputPort) { w.flits += o.BusyCycles })
	}
	return w
}

// TestSaturatedWorkIsProportional is the counts gate on the two active
// sets, the sleeping network interfaces and the sleeping memory side:
// on the benchmark's saturated configurations the kernel ticks a few
// components a cycle (every-cycle polling ticked 19.3 on sat-conv), a
// router is stepped little more than once per flit it forwards (polling:
// 8.6 times), Deliver visits only busy links (the busy-bit audit checks
// that those are exactly the links that deliver), and a controller is
// ticked little more than once per command it issues or request it
// retires (a retirement is a split packet completed at the device). The
// tick ceilings are the measured values (sat-conv 3.38 ticks/cycle,
// sat-gss 4.15, the four-channel DDR4 point 9.07; the polled memory side
// read 4.70, 4.79 and 11.33) and the controller ceilings likewise (1.14,
// 1.17 and 1.32 ticks per event; a backlogged scheduler polling and
// held-back requests' bounds read 3.84, 1.52 and 1.69), each with 10%
// headroom; the first two step ceilings predate the empty steps an
// awake router without packets now takes (measured 1.18 and 1.28
// steps/flit). On sat-conv, where admission and scheduler each used to
// tick every cycle, each now ticks in fewer than half. The near-idle
// configuration pins the other side: waking on credits and room events
// must not cost it a tick.
func TestSaturatedWorkIsProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-cycle saturated runs")
	}
	for _, tc := range []struct {
		name                                     string
		cfg                                      Config
		ticksPerCycle, stepsPerFlit, memPerEvent float64
		// memSideShare bounds the admission's and the controller's ticks,
		// each, as a share of the run's cycles (0: not asserted).
		memSideShare float64
	}{
		{"sat-conv", Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: Conv, Cycles: 200_000}, 3.72, 1.24, 1.25, 0.5},
		{"sat-gss", Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM, Cycles: 200_000}, 4.57, 1.34, 1.29, 0},
		{"scale-ddr4", Config{App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: GSSSAGM, PriorityDemand: true,
			Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4, Cycles: 200_000}, 9.97, 1.36, 1.45, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := countWork(t, tc.cfg)
			cycles := float64(tc.cfg.Cycles)
			if got := float64(w.ticks) / cycles; got > tc.ticksPerCycle {
				t.Errorf("%.2f component ticks per simulated cycle, want at most %.2f", got, tc.ticksPerCycle)
			}
			if got := float64(w.routerSteps) / float64(w.flits); got > tc.stepsPerFlit {
				t.Errorf("%.2f router steps per forwarded flit, want at most %.2f", got, tc.stepsPerFlit)
			}
			if got := float64(w.memTicks) / float64(w.memEvents); got > tc.memPerEvent {
				t.Errorf("%.2f controller ticks per command or retirement, want at most %.2f", got, tc.memPerEvent)
			}
			if tc.memSideShare > 0 {
				if got := float64(w.admitTicks) / cycles; got > tc.memSideShare {
					t.Errorf("mem-admit ticked in %.2f of the cycles, want at most %.2f", got, tc.memSideShare)
				}
				if got := float64(w.memTicks) / cycles; got > tc.memSideShare {
					t.Errorf("memctrl ticked in %.2f of the cycles, want at most %.2f", got, tc.memSideShare)
				}
			}
			if w.linkVisits == 0 {
				t.Error("Deliver visited no link")
			}
			t.Logf("%+v: %.3f ticks/cycle, %.3f steps/flit, %.3f memctrl ticks/event", w,
				float64(w.ticks)/cycles, float64(w.routerSteps)/float64(w.flits), float64(w.memTicks)/float64(w.memEvents))
		})
	}
	t.Run("lowutil-skip", func(t *testing.T) {
		// 668,912 is the every-cycle-polling tree's count for this run.
		cfg := Config{App: appmodel.LowUtil(), Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true, Cycles: 2_000_000}
		w := countWork(t, cfg)
		if w.ticks > 668_912 {
			t.Errorf("%d component ticks on the near-idle run, want at most 668912", w.ticks)
		}
		t.Logf("%+v", w)
	})
}

// lazyCounters reads the three counters a blocked sleep owes: the run's
// stalled cycles, each core's, and each stream's blocked cycles.
// Metrics() settles them first, as every reader must.
func lazyCounters(r *Runner) (stalled int64, perCore []int64, perStream []int64) {
	stalled = r.Metrics().Stalled
	for _, c := range r.cores {
		perCore = append(perCore, c.stalls)
		for _, g := range c.gens {
			perStream = append(perStream, g.(*traffic.Gen).Blocked)
		}
	}
	return
}

// TestMetricsExactMidRun: the lazily kept counters read exact at any
// cycle, not only after Finish. One runner advances by RunTo with its
// blocked cores asleep, the other ticks every component every cycle; at
// three intermediate cycles (and again after more running, so a
// mid-sleep settle is shown not to double-pay) both report the same
// stalled, per-core stall and per-stream blocked counts.
func TestMetricsExactMidRun(t *testing.T) {
	// A CPU that posts long writes sixteen deep fills its injection queue
	// long before its closed-loop window: the core sleeps blocked while
	// the stream is still being charged blocked cycles, and completions
	// keep moving that stream — the case settle-before-OnComplete exists
	// for.
	writer := appmodel.DualDTV()
	for i := range writer.Cores {
		if s := &writer.Cores[i].Streams[0]; s.ClosedLoop {
			s.ReadFrac, s.Beats, s.ThinkTime, s.MaxOutstanding = 0, []int{32}, 1, 16
		}
	}
	cfgs := map[string]Config{
		"CONV+PFS/deep-writer": {App: writer, Gen: dram.DDR3, Design: ConvPFS, PriorityDemand: true},
	}
	for _, d := range []Design{Conv, ConvPFS, GSSSAGM} {
		cfgs[d.String()] = Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: d, PriorityDemand: d == ConvPFS}
	}
	for name, cfg := range cfgs {
		cfg := cfg
		cfg.Cycles = 30_000
		t.Run(name, func(t *testing.T) {
			lazy, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetIdleSkip(false)
			for _, n := range []int64{4_001, 12_345, 29_999} {
				lazy.RunTo(n)
				for ref.Now() < n {
					ref.Step()
				}
				ls, lc, lg := lazyCounters(lazy)
				rs, rc, rg := lazyCounters(ref)
				if ls == 0 {
					t.Fatalf("cycle %d: no stalled cycles — the run never blocked", n)
				}
				if ls != rs || !reflect.DeepEqual(lc, rc) || !reflect.DeepEqual(lg, rg) {
					t.Fatalf("cycle %d: slept run reads stalled %d, per core %v, per stream %v;\nevery-cycle run %d, %v, %v",
						n, ls, lc, lg, rs, rc, rg)
				}
			}
			asleep := 0
			for _, c := range lazy.cores {
				if c.sleptFrom != sim.Never {
					asleep++
				}
			}
			if asleep == 0 {
				t.Error("no core sleeps blocked at the last checkpoint: the settle path went unexercised")
			}
		})
	}
}

// TestCheckedCatchesUnblockedSleep trips the NI-sleep audit: a core
// marked as sleeping blocked whose queue is not full must be reported —
// settle would pay it stall cycles its tick never counted.
func TestCheckedCatchesUnblockedSleep(t *testing.T) {
	r, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM, Cycles: 1_000, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	r.auditMeshes(0)
	if vs := r.chk.Violations(); len(vs) != 0 {
		t.Fatalf("fresh runner not clean: %v", vs)
	}
	r.cores[0].sleptFrom = 0
	r.auditMeshes(0)
	vs := r.chk.Violations()
	if len(vs) != 1 || vs[0].Kind != "ni-sleep" {
		t.Fatalf("unblocked sleeping core reported as %v, want one ni-sleep", vs)
	}
}

// TestGrantBoundAllowsUnlaunchedWinner stops a run of single-flit
// request packets on a cycle where an output channel has been granted to
// a packet whose flit has not launched yet (its buffer had already
// forwarded that cycle, or the port was out of credits), so the port
// reads Grants = BusyCycles + 1. The report cross-check must count that
// winner instead of flagging the port — and still flag one grant more.
func TestGrantBoundAllowsUnlaunchedWinner(t *testing.T) {
	app := appmodel.DualDTV()
	for i := range app.Cores {
		for j := range app.Cores[i].Streams {
			app.Cores[i].Streams[j].ReadFrac = 1 // a read request is one flit
		}
	}
	// stopAhead steps a fresh run to the first cycle that ends with a
	// port's grants ahead of its busy cycles.
	stopAhead := func() (*Runner, *noc.OutputPort) {
		r, err := New(Config{App: app, Gen: dram.DDR3, Design: Conv, Cycles: 20_000, Checked: true})
		if err != nil {
			t.Fatal(err)
		}
		for r.Now() < r.cfg.Cycles {
			r.Step()
			var ahead *noc.OutputPort
			eachLink(r.reqMesh, func(_ *noc.Router, _ int, o *noc.OutputPort) {
				if ahead == nil && o.Grants > o.BusyCycles {
					ahead = o
				}
			})
			if ahead != nil {
				return r, ahead
			}
		}
		t.Fatal("no cycle ended with a granted packet yet to launch")
		return nil, nil
	}
	r, _ := stopAhead()
	if vs := r.Finish().Obs.Violations; len(vs) != 0 {
		t.Fatalf("stopped at cycle %d with a winner yet to launch: %v", r.Now(), vs)
	}
	r, port := stopAhead()
	port.Grants++
	if vs := r.Finish().Obs.Violations; len(vs) != 1 || vs[0].Kind != "link-grant-bound" {
		t.Fatalf("a grant no packet accounts for reported as %v, want one link-grant-bound", vs)
	}
}

// memSleepViolations runs a checked saturated run to its end and returns
// the mem-sleep violations it collected against the named component.
func memSleepViolations(t *testing.T, r *Runner, component string) int {
	t.Helper()
	r.RunTo(r.cfg.Cycles)
	n := 0
	for _, v := range r.Finish().Obs.Violations {
		if v.Kind == "mem-sleep" && v.Component == component {
			n++
		}
	}
	return n
}

// TestCheckedCatchesUnwokenAdmission trips the admission-sleep audit:
// with the room event dropped, mem-admit sleeps on a refused head past
// the grant that makes room for it, and the first audit after that grant
// must find a sleeping admission whose head the controller would take.
func TestCheckedCatchesUnwokenAdmission(t *testing.T) {
	for _, d := range []Design{Conv, GSSSAGM} {
		r, err := New(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: d, Cycles: 5_000, Checked: true})
		if err != nil {
			t.Fatal(err)
		}
		r.chans[0].ctrl.OnRoom(func() {})
		if memSleepViolations(t, r, "mem-admit") == 0 {
			t.Errorf("%s: a dropped room wake went unreported", d)
		}
	}
}

// sleepyScheduler is a controller whose NextEvent forgets the grant it
// could make: it reports a cycle past the next one even with a request
// queued and room in the pipeline.
type sleepyScheduler struct{ memctrl.Controller }

func (s sleepyScheduler) NextEvent(now int64) int64 {
	if s.CanGrant() {
		return now + 16
	}
	return s.Controller.NextEvent(now)
}

// TestCheckedCatchesSleepingScheduler trips the scheduler-sleep audit: a
// controller that sleeps with a grant possible must be reported.
func TestCheckedCatchesSleepingScheduler(t *testing.T) {
	r, err := New(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: Conv, Cycles: 5_000, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	// The kernel's components hold the controller's methods; rebuild them
	// around the faulty one.
	r.chans[0].ctrl = sleepyScheduler{r.chans[0].ctrl}
	r.buildKernel()
	if memSleepViolations(t, r, "memctrl") == 0 {
		t.Error("a scheduler sleeping with a grant possible went unreported")
	}
}
