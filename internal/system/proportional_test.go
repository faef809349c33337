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
// ticks (and, of those, the channels' and the cores' summed), controller
// ticks, Router.step entries, links deliver visited, and flits forwarded
// (Σ BusyCycles, the useful router steps); memEvents is what the
// controllers' ticks were for, commands issued plus requests retired.
// All pure functions of (config, seed).
type workCounts struct {
	ticks, chanTicks, coreTicks, memTicks, memEvents int64
	routerSteps, linkVisits, flits                   int64
}

// tickCounter counts the ticks of the controller it wraps.
type tickCounter struct {
	memctrl.Controller
	n *int64
}

func (c tickCounter) Tick(now int64) {
	*c.n++
	c.Controller.Tick(now)
}

func countWork(t *testing.T, cfg Config) workCounts {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w workCounts
	for i := range r.chans {
		r.chans[i].ctrl = tickCounter{r.chans[i].ctrl, &w.memTicks}
	}
	r.RunTo(cfg.Cycles)
	for i := range r.chans {
		// The report reads the controller's concrete type.
		r.chans[i].ctrl = r.chans[i].ctrl.(tickCounter).Controller
	}
	r.Finish()
	w.ticks = r.kern.Ticks()
	for i := range r.chans {
		c := &r.chans[i]
		w.chanTicks += c.h.Ticks()
		st := c.dev.Stats()
		w.memEvents += st.Activates + st.Reads + st.Writes + st.Precharges + st.Refreshes + c.done
	}
	for _, c := range r.cores {
		w.coreTicks += c.h.Ticks()
	}
	for _, m := range []*noc.Mesh{r.reqMesh, r.respMesh} {
		v, s := m.WorkCounts()
		w.linkVisits += v
		w.routerSteps += s
		eachLink(m, func(_ *noc.Router, _ int, o *noc.OutputPort) { w.flits += o.BusyCycles })
	}
	return w
}

// TestSaturatedWorkIsProportional is the counts gate on the kernel's
// components: on the benchmark's saturated configurations the kernel
// ticks a couple of components a cycle (every-cycle polling ticked 19.3
// on sat-conv), a router is stepped little more than once per flit it
// forwards, deliver visits only busy links, and a controller is ticked
// little more than once per command it issues or request it retires (a
// retirement is a split packet completed at the device). The tick
// ceilings are the measured values with 10% headroom (sat-conv 2.22
// ticks/cycle, sat-gss 2.56, the four-channel DDR4 point 5.97; with a
// core's completion and injection as components of their own they read
// 2.27, 2.61 and 6.12), and so are the channels' (0.71, 0.76 and 2.28 a
// cycle). The cores' ticks are pinned exactly, as are controller ticks,
// router steps and links visited: folding the components together moved
// no walk. The near-idle configuration pins the other side: waking on
// arrivals and credits must not cost it a tick.
func TestSaturatedWorkIsProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-cycle saturated runs")
	}
	for _, tc := range []struct {
		name          string
		cfg           Config
		ticksPerCycle float64
		// chanPerCycle bounds the channels' ticks, summed, per cycle.
		chanPerCycle float64
		// The exact counts of the cores' ticks, summed, and of the walks
		// inside the mesh and channel components.
		coreTicks, memTicks, routerSteps, linkVisits int64
	}{
		{"sat-conv", Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: Conv, Cycles: 200_000},
			2.45, 0.78, 142_772, 59_340, 461_549, 595_217},
		{"sat-gss", Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM, Cycles: 200_000},
			2.81, 0.84, 154_338, 85_807, 541_686, 657_119},
		{"scale-ddr4", Config{App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: GSSSAGM, PriorityDemand: true,
			Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4, Cycles: 200_000},
			6.56, 2.51, 393_749, 239_518, 2_806_226, 3_121_033},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := countWork(t, tc.cfg)
			cycles := float64(tc.cfg.Cycles)
			if got := float64(w.ticks) / cycles; got > tc.ticksPerCycle {
				t.Errorf("%.2f component ticks per simulated cycle, want at most %.2f", got, tc.ticksPerCycle)
			}
			if got := float64(w.chanTicks) / cycles; got > tc.chanPerCycle {
				t.Errorf("%.2f channel ticks per simulated cycle, want at most %.2f", got, tc.chanPerCycle)
			}
			if w.coreTicks != tc.coreTicks || w.memTicks != tc.memTicks || w.routerSteps != tc.routerSteps || w.linkVisits != tc.linkVisits {
				t.Errorf("core ticks %d, controller ticks %d, router steps %d, links visited %d; want %d, %d, %d, %d",
					w.coreTicks, w.memTicks, w.routerSteps, w.linkVisits, tc.coreTicks, tc.memTicks, tc.routerSteps, tc.linkVisits)
			}
			t.Logf("%+v: %.3f ticks/cycle, %.3f steps/flit, %.3f controller ticks/event", w,
				float64(w.ticks)/cycles, float64(w.routerSteps)/float64(w.flits), float64(w.memTicks)/float64(w.memEvents))
		})
	}
	t.Run("lowutil-skip", func(t *testing.T) {
		cfg := Config{App: appmodel.LowUtil(), Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true, Cycles: 2_000_000}
		w := countWork(t, cfg)
		if w.ticks > 425_276 || w.coreTicks != 102_835 || w.memTicks != 102_579 {
			t.Errorf("%d component ticks, %d core ticks and %d controller ticks on the near-idle run, want at most 425276, 102835 and 102579",
				w.ticks, w.coreTicks, w.memTicks)
		}
		t.Logf("%+v", w)
	})
}

// lazyCounters reads the three counters a blocked sleep owes: the run's
// stalled cycles, each core's, and each stream's blocked cycles.
// settledTotals settles them first, as every reader must.
func lazyCounters(r *Runner) (stalled int64, perCore []int64, perStream []int64) {
	stalled = settledTotals(r).stalled
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
					ref.kern.Step()
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

// TestCheckedCatchesUnwokenCore trips the rest of the NI-sleep audit: a
// core whose response sink or request injector forgets to wake it sleeps
// with a flit it could drain or launch, which the every-cycle tick would
// have moved.
func TestCheckedCatchesUnwokenCore(t *testing.T) {
	for name, fault := range map[string]func(c *coreNI){
		"sink":     func(c *coreNI) { c.sink.Consumer = nil },
		"injector": func(c *coreNI) { c.inj.Producer = nil },
	} {
		r, err := New(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: Conv, Cycles: 20_000, Checked: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.cores {
			fault(c)
		}
		r.RunTo(r.cfg.Cycles)
		n := 0
		for _, v := range r.Finish().Obs.Violations {
			if v.Kind == "ni-sleep" {
				n++
			}
		}
		if n == 0 {
			t.Errorf("%s: a core left asleep by its %s went unreported", name, name)
		}
		t.Logf("%s fault: %d ni-sleep violations", name, n)
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
			r.kern.Step()
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

// TestCheckedCatchesStaleRefusal trips the channel-sleep audit: a
// refusal held against a head the controller would now take leaves that
// head unoffered until the controller's next tick, which the every-cycle
// admission would not have waited for. Stopped at the end of a cycle in
// which a controller tick made room for the head (the channel offers it
// next cycle), a planted refusal must be reported, once.
func TestCheckedCatchesStaleRefusal(t *testing.T) {
	for _, d := range []Design{Conv, GSSSAGM} {
		r, err := New(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: d, Cycles: 5_000, Checked: true})
		if err != nil {
			t.Fatal(err)
		}
		c := &r.chans[0]
		for {
			if r.Now() == r.cfg.Cycles {
				t.Fatalf("%s: no cycle ended with a head the controller had just made room for", d)
			}
			r.kern.Step()
			if p := c.sink.Peek(); p != nil && !c.refused && c.ctrl.Accepts(p) {
				break
			}
		}
		if vs := r.chk.Violations(); len(vs) != 0 {
			t.Fatalf("%s: clean run violated: %v", d, vs)
		}
		c.refused = true
		r.auditMeshes(r.Now() - 1)
		if vs := r.chk.Violations(); len(vs) != 1 || vs[0].Kind != "mem-sleep" {
			t.Errorf("%s: a stale refusal reported as %v, want one mem-sleep", d, vs)
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
// controller whose memDue lies past a grant it could make must be
// reported.
func TestCheckedCatchesSleepingScheduler(t *testing.T) {
	r, err := New(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: Conv, Cycles: 5_000, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	r.chans[0].ctrl = sleepyScheduler{r.chans[0].ctrl}
	r.RunTo(r.cfg.Cycles)
	n := 0
	for _, v := range r.Finish().Obs.Violations {
		if v.Kind == "mem-sleep" && v.Component == "memctrl" {
			n++
		}
	}
	if n == 0 {
		t.Error("a scheduler sleeping with a grant possible went unreported")
	}
}
