package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"aanoc/internal/appmodel"
	"aanoc/internal/core"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/obs"
	"aanoc/internal/router"
	"aanoc/internal/scenario"
	"aanoc/internal/sim"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
	"aanoc/internal/traffic"
)

// The probes replay a seeded request mix through one layer's exported
// API and report the host cost of one unit of its work. They see the
// layer from outside, alone and cache-warm, so a unit cost times the
// work count of a real op is a lower bound on that layer's share, not
// its measured share; system.unattributed_frac says how far short the
// sum falls. Every traced run executes all of them, whatever its
// workload, so a unit cost is comparable across traces.

// probes runs every standalone driver. scale divides the iteration
// counts (1 in the benchmark, 100 in the smoke test).
func probes(m metrics, seed uint64, scale int) error {
	n := func(iters int) int { return max(iters/scale, 64) }
	rng := sim.NewRNG(seed)

	m.set("sim.ns_per_step.idle64", probeKernelStep(n(200_000)))
	m.set("sim.ns_per_skip", probeKernelSkip(n(200_000)))
	for _, side := range []int{4, 6} {
		v, err := probeMesh(rng, side, n(100_000))
		if err != nil {
			return err
		}
		m.set(fmt.Sprintf("noc.ns_per_flit_hop.%dx%d", side, side), v)
	}
	gss, err := core.New(core.Config{PCT: 3, Banks: 8})
	if err != nil {
		return err
	}
	m.set("core.ns_per_select", probeAllocator(rng, gss, n(400_000)))
	m.set("router.ns_per_select", probeAllocator(rng, &router.PriorityFirst{Inner: &router.RoundRobin{}}, n(400_000)))

	ddr3 := dram.MustSpeed(dram.DDR3, 800)
	ddr4 := dram.MustSpeed(dram.DDR4, dram.DefaultClock(dram.DDR4)).WithSubarrays(4)
	for _, c := range []struct {
		name string
		mk   func(*dram.Device, func(memctrl.Completion)) memctrl.Controller
	}{
		{"simple", func(d *dram.Device, done func(memctrl.Completion)) memctrl.Controller {
			return memctrl.NewSimple(d, memctrl.PartialOpenPage, 8, done)
		}},
		{"memmax", func(d *dram.Device, done func(memctrl.Completion)) memctrl.Controller {
			return memctrl.NewMemMax(d, memctrl.DefaultMemMaxConfig(), done)
		}},
		{"dpq", func(d *dram.Device, done func(memctrl.Completion)) memctrl.Controller {
			return memctrl.NewDPQ(d, memctrl.DefaultDPQConfig(12), done)
		}},
	} {
		v, err := probeController(rng, ddr3, c.mk, n(20_000))
		if err != nil {
			return fmt.Errorf("memctrl %s: %w", c.name, err)
		}
		m.set("memctrl.ns_per_request."+c.name, v)
	}
	for _, d := range []struct {
		name string
		t    dram.Timing
	}{{"ddr3", ddr3}, {"ddr4-salp", ddr4}} {
		probe, issue, err := probeDevice(rng, d.t, n(100_000))
		if err != nil {
			return fmt.Errorf("dram %s: %w", d.name, err)
		}
		m.set("dram.ns_per_probe."+d.name, probe)
		m.set("dram.ns_per_issue."+d.name, issue)
	}

	v, err := probeTraffic(rng, n(200_000))
	if err != nil {
		return err
	}
	m.set("traffic.ns_per_tick", v)
	if v, err = probeMapping(rng, ddr4, n(1_000_000)); err != nil {
		return err
	}
	m.set("mapping.ns_per_route", v)
	if v, err = probeScenario(n(6400) / 32); err != nil {
		return err
	}
	m.set("scenario.parse_resolve_us", v)
	m.set("sweep.overhead_us_per_point", probeSweep(seed, n(51_200)/8))
	return nil
}

func nsPer(d time.Duration, units int64) float64 {
	return float64(d.Nanoseconds()) / float64(max(units, 1))
}

// stub is a kernel component that does no work and wakes every period
// cycles (sim.Never: only when woken).
type stub struct {
	phase  sim.Phase
	period int64
}

func (s *stub) Name() string     { return "stub" }
func (s *stub) Phase() sim.Phase { return s.phase }
func (s *stub) Tick(int64)       {}
func (s *stub) NextWake(now int64) int64 {
	if s.period == sim.Never {
		return sim.Never
	}
	return now + s.period
}

func stubKernel(period func(i int) int64) *sim.Kernel {
	k := sim.NewKernel()
	for i := 0; i < 64; i++ {
		k.Register(&stub{phase: sim.Phase(i % sim.NumPhases), period: period(i)})
	}
	return k
}

// probeKernelStep: 64 components, 8 awake every cycle and 56 asleep —
// the phase walk of a cycle in which most of the system idles.
func probeKernelStep(cycles int) float64 {
	k := stubKernel(func(i int) int64 {
		if i%8 == 0 {
			return 1
		}
		return sim.Never
	})
	t0 := time.Now()
	k.RunUntil(int64(cycles))
	return nsPer(time.Since(t0), k.Steps())
}

// probeKernelSkip: every component asleep but one that wakes each 1000
// cycles, so each step is preceded by one idle-skip jump.
func probeKernelSkip(jumps int) float64 {
	k := stubKernel(func(i int) int64 {
		if i == 0 {
			return 1000
		}
		return sim.Never
	})
	t0 := time.Now()
	k.RunUntil(int64(jumps) * 1000)
	return nsPer(time.Since(t0), k.Steps())
}

// probeMesh saturates a side x side mesh with round-robin allocators:
// every node but the memory corners injects 1-16 flit packets toward a
// corner sink (one corner on 4x4, four on 6x6, as the application models
// place their memory ports), and reports host time per flit hop.
func probeMesh(rng *sim.RNG, side, cycles int) (float64, error) {
	m, err := noc.NewMesh(side, side, 8)
	if err != nil {
		return 0, err
	}
	for _, rt := range m.Routers {
		rt.SetAllAllocators(func(int) noc.Allocator { return &router.RoundRobin{} })
	}
	corners := []noc.Coord{{X: 0, Y: 0}}
	if side > 4 {
		corners = append(corners, noc.Coord{X: side - 1, Y: 0}, noc.Coord{X: 0, Y: side - 1}, noc.Coord{X: side - 1, Y: side - 1})
	}
	var sinks []*noc.Sink
	for _, c := range corners {
		sinks = append(sinks, m.AttachSink(c, 16, 16))
	}
	type source struct {
		inj  *noc.Injector
		pkts [2]noc.Packet // recycled: a packet is refilled once the sink has popped it
		free []*noc.Packet
	}
	var sources []*source
	for _, rt := range m.Routers {
		if slices.Contains(corners, rt.Pos) {
			continue
		}
		s := &source{inj: m.AttachInjector(rt.Pos)}
		for i := range s.pkts {
			s.pkts[i].SrcCore = len(sources)
			s.pkts[i].Src = rt.Pos
			s.free = append(s.free, &s.pkts[i])
		}
		sources = append(sources, s)
	}
	id := int64(0)
	t0 := time.Now()
	for now := int64(0); now < int64(cycles); now++ {
		for _, s := range sources {
			for len(s.free) > 0 {
				p := s.free[len(s.free)-1]
				s.free = s.free[:len(s.free)-1]
				id++
				p.ID, p.ParentID = id, id
				p.Dst = sim.Pick(rng, corners)
				p.Kind = noc.Write
				p.Beats = 2 * (1 + rng.Intn(16))
				p.Flits = noc.FlitsForBeats(p.Beats)
				p.Addr = dram.Address{Bank: rng.Intn(8), Row: rng.Intn(64)}
				s.inj.Enqueue(p)
			}
		}
		m.Cycle(now)
		for _, sk := range sinks {
			sk.Step(now)
			for p := sk.Pop(now); p != nil; p = sk.Pop(now) {
				src := sources[p.SrcCore]
				src.free = append(src.free, p)
			}
		}
		for _, s := range sources {
			s.inj.Step(now)
		}
	}
	wall := time.Since(t0)
	var hops int64
	for _, rt := range m.Routers {
		for p := range rt.Out {
			hops += rt.Out[p].BusyCycles
		}
	}
	if hops == 0 {
		return 0, fmt.Errorf("noc probe: no flit moved on the %dx%d mesh", side, side)
	}
	return nsPer(wall, hops), nil
}

// probeAllocator drives one output's flow-control policy the way a
// router does: candidate sets of 2-5 input-buffer heads, the winner
// scheduled and replaced by a fresh arrival.
func probeAllocator(rng *sim.RNG, a noc.Allocator, selects int) float64 {
	var pkts [noc.NumPorts]noc.Packet
	var cands [noc.NumPorts]noc.Candidate
	id := int64(0)
	arrive := func(i int, now int64) {
		id++
		pkts[i] = noc.Packet{
			ID: id, ParentID: id, SrcCore: i, Kind: noc.Kind(rng.Intn(2)), Priority: rng.Intn(8) == 0,
			Addr: dram.Address{Bank: rng.Intn(8), Row: rng.Intn(4)}, Beats: 8, Flits: 4, Splits: 1,
			APTag: rng.Intn(4) == 0, Gen: now,
		}
		cands[i] = noc.Candidate{Pkt: &pkts[i], Port: i}
		a.OnPacketArrival(&pkts[i], now)
	}
	for i := range pkts {
		arrive(i, 0)
	}
	t0 := time.Now()
	for now := int64(1); now <= int64(selects); now++ {
		// Sets of 2..5 in rotation; the unused tail keeps its packets
		// resident, as buffers behind a busy head do.
		set := cands[:2+int(now)%4]
		if w := a.Select(set, now); w >= 0 {
			a.OnScheduled(set[w].Pkt, now)
			arrive(set[w].Port, now)
		}
	}
	return nsPer(time.Since(t0), int64(selects))
}

// probeController keeps one controller and its device saturated with a
// seeded mix of row hits, bank interleaves, conflicts and read/write
// turnarounds, polling every cycle as the system's admit phase does
// while offers are pending, and reports host time per completed request.
func probeController(rng *sim.RNG, t dram.Timing, mk func(*dram.Device, func(memctrl.Completion)) memctrl.Controller, requests int) (float64, error) {
	dev, err := dram.NewDevice(t)
	if err != nil {
		return 0, err
	}
	pool := make([]noc.Packet, 64)
	free := make([]*noc.Packet, 0, len(pool))
	for i := range pool {
		free = append(free, &pool[i])
	}
	completed := 0
	ctrl := mk(dev, func(c memctrl.Completion) {
		completed++
		free = append(free, c.Pkt)
	})
	var next *noc.Packet
	id := int64(0)
	row := make([]int, t.Banks)
	t0 := time.Now()
	for now := int64(0); completed < requests; now++ {
		if now > int64(requests)*4096 {
			return 0, fmt.Errorf("controller stalled: %d of %d requests after %d cycles", completed, requests, now)
		}
		for {
			if next == nil && len(free) > 0 {
				next = free[len(free)-1]
				free = free[:len(free)-1]
				id++
				bank := rng.Intn(t.Banks)
				if rng.Intn(3) == 0 {
					row[bank] = rng.Intn(64) // a third of requests leave the bank's current row
				}
				beats := 8 << rng.Intn(3)
				*next = noc.Packet{
					ID: id, ParentID: id, SrcCore: rng.Intn(12), Kind: noc.Kind(rng.Intn(2)), Class: noc.ClassMedia,
					Addr:  dram.Address{Bank: bank, Row: row[bank], Col: 8 * rng.Intn(32)},
					Beats: beats, Flits: noc.FlitsForBeats(beats), Splits: 1, APTag: rng.Intn(4) == 0, Gen: now,
				}
			}
			if next == nil || !ctrl.Offer(next, now) {
				break
			}
			next = nil
		}
		ctrl.Tick(now)
	}
	return nsPer(time.Since(t0), int64(completed)), nil
}

// probeDevice walks a seeded access stream through a bare device the
// way a controller's command buffers do: ask the row-level state and
// readiness queries which command the access needs and when, then
// CanIssue and Issue it. The walk runs twice from the same state, the
// second time asking eight more (side-effect-free) look-ups per step;
// the difference prices one look-up, and the rest of the first walk is
// the cost of an issued command.
func probeDevice(rng *sim.RNG, t dram.Timing, accesses int) (probeNs, issueNs float64, err error) {
	type access struct {
		bank, row int
		kind      dram.CmdKind
	}
	stream := make([]access, 1024)
	row := make([]int, t.Banks)
	for i := range stream {
		bank := rng.Intn(t.Banks)
		if rng.Intn(3) == 0 {
			row[bank] = rng.Intn(64)
		}
		stream[i] = access{bank, row[bank], dram.CmdRead + dram.CmdKind(rng.Intn(2))}
	}
	const extra = 8
	walk := func(lookups int) (wall time.Duration, steps, issues int64, err error) {
		dev, err := dram.NewDevice(t)
		if err != nil {
			return 0, 0, 0, err
		}
		// next returns the command the access needs now and the earliest
		// cycle the device's hints allow it.
		next := func(a access, now int64) (dram.Command, int64) {
			if dev.RowOpen(a.bank, a.row, now) {
				return dram.Command{Kind: a.kind, Bank: a.bank, Row: a.row, BL: t.DeviceBL},
					dev.RowColumnReadyAt(a.bank, a.row, a.kind, now)
			}
			if _, blocked := dev.BlockingRow(a.bank, a.row, now); blocked {
				return dram.Command{Kind: dram.CmdPrecharge, Bank: a.bank, Row: a.row},
					dev.RowPrechargeReadyAt(a.bank, a.row, now)
			}
			return dram.Command{Kind: dram.CmdActivate, Bank: a.bank, Row: a.row},
				dev.RowActivateReadyAt(a.bank, a.row, now)
		}
		now := int64(0)
		t0 := time.Now()
		for i := 0; i < accesses; i++ {
			for done := false; !done; steps++ {
				cmd, ready := next(stream[i%len(stream)], now)
				for k := 1; k < lookups; k++ {
					next(stream[(i+k)%len(stream)], now)
				}
				now = max(now, ready)
				for !dev.CanIssue(cmd, now) {
					if now++; now > int64(accesses)*4096 {
						return 0, 0, 0, fmt.Errorf("device refuses %v", cmd)
					}
				}
				if _, err := dev.Issue(cmd, now); err != nil {
					return 0, 0, 0, err
				}
				issues++
				now++
				done = cmd.IsCAS()
			}
		}
		return time.Since(t0), steps, issues, nil
	}
	base, steps, issues, err := walk(1)
	if err != nil {
		return 0, 0, err
	}
	more, _, _, err := walk(1 + extra)
	if err != nil {
		return 0, 0, err
	}
	probeNs = max(nsPer(more-base, extra*steps), 0)
	issueNs = max(nsPer(base, issues)-probeNs*float64(steps)/float64(issues), 0)
	return probeNs, issueNs, nil
}

// probeTraffic ticks every stream generator of the dual-DTV model the
// way the inject phase does (Tick, then NextArrival), completing
// closed-loop requests at once.
func probeTraffic(rng *sim.RNG, ticks int) (float64, error) {
	var gens []*traffic.Gen
	for _, c := range appmodel.DualDTV().Cores {
		for _, s := range c.Streams {
			g, err := traffic.NewGen(s, 8, appmodel.RowBeats, true, rng)
			if err != nil {
				return 0, err
			}
			gens = append(gens, g)
		}
	}
	cycles := max(ticks/len(gens), 1)
	t0 := time.Now()
	for now := int64(0); now < int64(cycles); now++ {
		for _, g := range gens {
			if g.Tick(now, false) != nil {
				g.OnComplete(now)
			}
			g.NextArrival()
		}
	}
	return nsPer(time.Since(t0), int64(cycles*len(gens))), nil
}

// probeMapping routes seeded addresses through the four-channel XOR map
// of the scale-ddr4 workload: one StructMap.Route and one Decode a pair.
func probeMapping(rng *sim.RNG, t dram.Timing, calls int) (float64, error) {
	cm, err := mapping.NewChannelMap(mapping.ChannelThenBankXOR, 4, t.Banks)
	if err != nil {
		return 0, err
	}
	sm, err := mapping.NewStructMap(cm, t, mapping.InterleaveRowBankCol, 4096, 2048)
	if err != nil {
		return 0, err
	}
	addrs := make([]dram.Address, 1024)
	for i := range addrs {
		addrs[i] = dram.Address{Bank: rng.Intn(cm.GlobalBanks()), Row: rng.Intn(4096), Col: rng.Intn(512)}
	}
	var sink int
	t0 := time.Now()
	for i := 0; i < calls/2; i++ {
		a := addrs[i%len(addrs)]
		sink += sm.Route(a).Channel
		sink += sm.Decode(int64(a.Row)*2048*int64(cm.GlobalBanks()) + int64(a.Col)).Bank
	}
	wall := time.Since(t0)
	if sink < 0 {
		return 0, fmt.Errorf("mapping probe: negative coordinate sum %d", sink)
	}
	return nsPer(wall, int64(calls/2*2)), nil
}

// probeScenario is the per-point path of a spec-driven run: model to
// spec to JSON, parsed back and resolved to a system configuration.
func probeScenario(iters int) (float64, error) {
	iters = max(iters, 4)
	app := appmodel.DualDTV()
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		buf.Reset()
		if err := scenario.FromApp(app).WriteJSON(&buf); err != nil {
			return 0, err
		}
		spec, err := scenario.Parse(buf.Bytes())
		if err != nil {
			return 0, err
		}
		if _, err := spec.SystemConfig(scenario.Run{Generation: 3, PriorityDemand: true}); err != nil {
			return 0, err
		}
	}
	return nsPer(time.Since(t0), int64(iters)) / 1e3, nil
}

// probeSweep is the executor's own cost per point: distinct
// fingerprints, one worker, a canned RunFunc and no store.
func probeSweep(seed uint64, points int) float64 {
	cfgs := make([]system.Config, max(points, 8))
	for i := range cfgs {
		cfgs[i] = system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM, Seed: seed + uint64(i)}
	}
	canned := system.Result{App: "ddtv"}
	t0 := time.Now()
	sweep.Run(cfgs, sweep.Options{Workers: 1, RunFunc: func(system.Config) (system.Result, error) { return canned, nil }})
	return nsPer(time.Since(t0), int64(len(cfgs))) / 1e3
}

// reportCosts times the canonical report encoding and its inverse on a
// report the workload itself produced.
func reportCosts(m metrics, rep *obs.Report, iters int) error {
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		buf.Reset()
		if err := obs.EncodeJSON(&buf, rep); err != nil {
			return err
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := obs.DecodeJSON(buf.Bytes()); err != nil {
			return err
		}
	}
	dec := time.Since(t0)
	m.set("obs.encode_us", nsPer(enc, int64(iters))/1e3)
	m.set("obs.decode_us", nsPer(dec, int64(iters))/1e3)
	m.set("obs.report_bytes", float64(buf.Len()))
	return nil
}

// fingerprintCost times sweep.Fingerprint on one of the workload's
// configurations.
func fingerprintCost(m metrics, cfg system.Config, iters int) {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sweep.Fingerprint(cfg)
	}
	m.set("sweep.fingerprint_us", nsPer(time.Since(t0), int64(iters))/1e3)
}

// idleSkipSpeedup runs the configuration with the kernel's idle-skip on
// and off; the results must not differ.
func idleSkipSpeedup(cfg system.Config) (float64, error) {
	var wall [2]time.Duration
	var res [2]system.Result
	for i, skip := range []bool{true, false} {
		r, err := system.New(cfg)
		if err != nil {
			return 0, err
		}
		r.SetIdleSkip(skip)
		t0 := time.Now()
		r.RunTo(cfg.Cycles)
		wall[i] = time.Since(t0)
		res[i] = r.Finish()
	}
	if res[0].Completed != res[1].Completed || res[0].Utilization != res[1].Utilization {
		return 0, fmt.Errorf("idle-skip changed the result: %d/%v with, %d/%v without",
			res[0].Completed, res[0].Utilization, res[1].Completed, res[1].Utilization)
	}
	return float64(wall[1]) / float64(max(wall[0], 1)), nil
}

// checkedOverhead runs the configuration with checked mode off and on
// and returns the wall-time ratio and the violations the checked run
// recorded.
func checkedOverhead(cfg system.Config) (ratio float64, violations int, err error) {
	var wall [2]time.Duration
	for i, checked := range []bool{false, true} {
		cfg.Checked = checked
		t0 := time.Now()
		res, err := system.Run(cfg)
		wall[i] = time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		violations = len(res.Obs.Violations)
	}
	return float64(wall[1]) / float64(max(wall[0], 1)), violations, nil
}
