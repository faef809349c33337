package system

import (
	"fmt"
	"slices"

	"aanoc/internal/appmodel"
	"aanoc/internal/check"
	"aanoc/internal/core"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/obs"
	"aanoc/internal/router"
	"aanoc/internal/sim"
	"aanoc/internal/stats"
	"aanoc/internal/trace"
	"aanoc/internal/traffic"
)

// channel is one SDRAM channel: a controller/device pair behind its own
// mesh ejection port, with the counters and wake state that belong to
// it. A single-channel run is the one-element case of the same wiring.
// It is the channel's kernel component (components.go).
type channel struct {
	sfx     string // names its monitors: /chN, empty single-channel
	port    noc.Coord
	dev     *dram.Device
	ctrl    memctrl.Controller
	sink    *noc.Sink     // request-mesh ejection at port
	respInj *noc.Injector // response-mesh injection at port

	// sent/done count split packets routed to and completed by the
	// channel — the conservation ledger (checked mode) and the report's
	// per-channel Splits/Completions.
	sent, done int64

	// h is the channel's kernel handle: an arriving flit or a credit for
	// the response injector wakes it. memDue is the cycle the controller
	// next ticks unless an admission comes first (its NextEvent after its
	// last tick). refused holds the controller's answer for the sink's
	// head, once Offer or, after a controller tick, Accepts has said no;
	// it stands until the controller ticks again.
	h       *sim.Handle
	memDue  int64
	refused bool

	// dpqMon is the DPQ WCET monitor (checked runs under SchedDPQ only).
	dpqMon *check.DPQMonitor
}

// coreNI is one core's network interface: traffic generators, request
// injector and response sink, with the core's own counters. It is the
// core's kernel component (components.go).
type coreNI struct {
	r    *Runner
	idx  int // position in Runner.cores; a packet's SrcCore
	spec appmodel.Core
	gens []traffic.Source
	inj  *noc.Injector
	sink *noc.Sink

	completed  int64 // requests served
	beats      int64 // their useful beats
	latencySum int64 // their generation-to-completion latency, summed
	stalls     int64 // cycles the generators lost to injection backpressure
	generated  int64 // logical requests generated (the per-core ledger)

	// backlog holds, per virtual channel, the requests whose packets are
	// not all cut or launched yet; uncut is the flits of the splits not
	// yet cut, the rest of the NI's backlog (queued) being the injector's,
	// and queuedHWM that backlog's high-water mark.
	backlog   [2]backlog
	uncut     int
	queuedHWM int

	// h is woken when a response flit arrives, a completion refills a
	// closed-loop window or a credit returns to a backlogged injector.
	h *sim.Handle
	// sleptFrom is the first cycle of a blocked sleep that settle has not
	// yet paid for: sim.Never while the core is awake or sleeps unblocked
	// (nothing accrues then).
	sleptFrom int64
}

// Runner is a fully wired simulation; Step advances it cycle by cycle.
// Most callers use Run; Runner is exported for the benchmark (bench/),
// which times New, RunTo and Finish apart, and for tests that want
// mid-run visibility.
type Runner struct {
	cfg    Config
	timing dram.Timing

	// The three kinds of thing the system is made of: memory channels
	// (chmap owns the global-bank interleaving across them), cores behind
	// network interfaces, and the two meshes between them.
	chans             []channel
	chmap             mapping.ChannelMap
	cores             []*coreNI
	reqMesh, respMesh *noc.Mesh
	meshes            [2]meshComp // the meshes' kernel components

	// The simulation kernel owns the clock.
	kern *sim.Kernel

	reqs   slotTable      // the outstanding logical requests, freed at their completion
	split  *core.Splitter // nil when the design does not split
	nextID int64

	// The free-list for packets: they cycle
	// core→mesh→controller→(response mesh)→core and are recycled at their
	// completion points (the caller asserts nothing holds the pointer any
	// more), so steady state allocates nothing per request. Everything
	// downstream that outlives a packet (controller `last` state, GSS
	// history) holds value copies, never pointers, so recycling is safe. A
	// leased packet is overwritten whole by its taker.
	pkts sim.Pool[noc.Packet]

	met stats.Metrics

	// The collected time series and the data-cycle watermark of the last
	// sample window.
	samples     []obs.Sample
	lastSampleD int64

	gssAllocs  []core.GSS    // every GSS output's allocator, in router order
	gssRouters []*noc.Router // their routers, whose output ports count the grants

	// chk is nil unless Config.Checked.
	chk *check.Checker

	// maxBeats is the largest single-request beat count the resolved
	// workload can present — the interference unit of the DPQ WCET bound
	// and the regulator's budget floor.
	maxBeats int
}

// New wires a simulation for the configuration. Config.Validate decides
// whether it can run; the errors handled below it are the substrate
// constructors' own checks, which a validated configuration passes.
func New(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Resolved()
	timing, err := cfg.deviceTiming()
	if err != nil {
		return nil, err
	}
	ports := cfg.App.Ports()[:cfg.Channels]
	chmap, err := mapping.NewChannelMap(cfg.Scheme, cfg.Channels, timing.Banks)
	if err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, timing: timing, chmap: chmap, maxBeats: maxRequestBeats(cfg)}
	if r.reqMesh, err = noc.NewMeshVC(cfg.App.Width, cfg.App.Height, bufFlits, cfg.VirtualChannels); err != nil {
		return nil, err
	}
	if r.respMesh, err = noc.NewMeshVC(cfg.App.Width, cfg.App.Height, bufFlits, cfg.VirtualChannels); err != nil {
		return nil, err
	}
	if cfg.AdaptiveRouting {
		r.reqMesh.SetRouting(noc.RoutingWestFirst)
		r.respMesh.SetRouting(noc.RoutingWestFirst)
	}
	if err := r.installAllocators(ports); err != nil {
		return nil, err
	}
	if err := r.buildMemory(ports); err != nil {
		return nil, err
	}
	if cfg.Design.usesSAGM() {
		g := cfg.SplitGranularity
		if g == 0 {
			g = core.SplitGranularity(int(cfg.Gen))
		}
		r.split = &core.Splitter{GranularityBeats: g}
	}
	if err := r.buildCores(); err != nil {
		return nil, err
	}
	if cfg.Checked {
		r.installChecks()
	}
	r.buildKernel()
	r.kern.SetIdleSkip(!cfg.NoIdleSkip)
	return r, nil
}

// deviceTiming resolves the device timing every channel shares.
func (c Config) deviceTiming() (dram.Timing, error) {
	timing, err := dram.Speed(c.Gen, c.ClockMHz)
	if err != nil {
		return dram.Timing{}, err
	}
	if c.Design.usesSAGM() && !timing.OTF {
		// SAGM matches the access granularity with BL4 bursts; devices
		// with on-the-fly burst chop (DDR3/DDR4) stay in BL8 mode and chop
		// per command instead.
		timing = timing.WithDeviceBL(4)
	}
	return timing.WithSubarrays(c.Subarrays), nil
}

// buildMemory attaches one controller/device pair behind each channel's
// ejection port.
func (r *Runner) buildMemory(ports []noc.Coord) error {
	cfg := r.cfg
	// The design's page policy (zoo schedulers that keep a windowed
	// pipeline inherit it; DPQ is structurally closed-page).
	policy := memctrl.OpenPage
	if cfg.Design.usesSAGM() {
		policy = memctrl.PartialOpenPage
	}
	if cfg.PagePolicy != nil {
		policy = *cfg.PagePolicy
	}
	memReady := 4
	if cfg.Design.usesMemMax() || cfg.Scheduler != memctrl.SchedDefault {
		memReady = 8
	}
	// Sized once: completions and kernel components hold &r.chans[i].
	r.chans = make([]channel, len(ports))
	sinks := r.reqMesh.AttachSinks(2*bufFlits, memReady, ports...)
	injs := r.respMesh.AttachInjectors(ports...)
	for i, port := range ports {
		c := &r.chans[i]
		dev, err := dram.NewDevice(r.timing)
		if err != nil {
			return err
		}
		dev.InjectFault(cfg.Fault)
		*c = channel{port: port, dev: dev, sink: &sinks[i], respInj: &injs[i]}
		if len(ports) > 1 {
			// A single channel keeps the seed's exact names.
			c.sfx = fmt.Sprintf("/ch%d", i)
		}
		c.ctrl = r.newController(dev, policy, func(cm memctrl.Completion) { r.onMemDone(c, cm) })
	}
	return nil
}

// newController builds one channel's memory scheduler: the configured
// zoo member, or the paper's pairing of MemMax for conventional designs
// and the lightweight controller otherwise.
func (r *Runner) newController(dev *dram.Device, policy memctrl.PagePolicy, onDone func(memctrl.Completion)) memctrl.Controller {
	cfg := r.cfg
	switch cfg.Scheduler {
	case memctrl.SchedDPQ:
		return memctrl.NewDPQ(dev, memctrl.DefaultDPQConfig(len(cfg.App.Cores)), onDone)
	case memctrl.SchedRegulated:
		return memctrl.NewRegulator(dev, len(cfg.App.Cores), r.maxBeats, memPipeline, policy, onDone)
	case memctrl.SchedStaged:
		return memctrl.NewStaged(dev, len(cfg.App.Cores), memPipeline, policy, onDone)
	}
	if cfg.Design.usesMemMax() {
		// The bus-level scheduler hands one transaction at a time to the
		// controller, whose command look-ahead prepares the next page
		// while the current data transfers (a window of two).
		mm := memctrl.MemMaxConfig{PipelineDepth: 2, PriorityFirst: cfg.Design == ConvPFS}
		return memctrl.NewMemMax(dev, mm, onDone)
	}
	return memctrl.NewSimple(dev, policy, memPipeline, onDone)
}

// buildCores attaches every core's traffic sources and network
// interface, one slab per kind of object. In replay mode the recorded
// requests replace the synthetic generators.
func (r *Runner) buildCores() error {
	cfg := r.cfg
	specs := cfg.App.Cores
	rng := sim.NewRNG(cfg.Seed)
	var replay map[string][]trace.Record
	if len(cfg.Replay) > 0 {
		replay = trace.SplitByCore(cfg.Replay)
	}
	pos, streams, beats := make([]noc.Coord, len(specs)), 0, 0
	for i, spec := range specs {
		pos[i], streams = spec.Pos, streams+len(spec.Streams)
		for _, s := range spec.Streams {
			beats += len(s.Beats)
		}
	}
	injs, sinks := r.reqMesh.AttachInjectors(pos...), r.respMesh.AttachSinks(2*bufFlits, 16, pos...)
	sources := streams
	if replay != nil {
		streams, beats, sources = 0, 0, len(specs)
	}
	gens, rngs, srcs := make([]traffic.Gen, streams), make([]sim.RNG, streams), make([]traffic.Source, sources)
	counts := make([]int64, beats)
	onFirstFlit := func(p *noc.Packet, now int64) {
		if l := r.reqs.at(p.Req); l.entry < 0 {
			l.entry = now
		}
	}
	nis := make([]coreNI, len(specs))
	r.cores = make([]*coreNI, len(specs))
	for i, spec := range specs {
		ni := &nis[i]
		*ni = coreNI{
			r: r, idx: i, spec: spec, sleptFrom: sim.Never,
			inj: &injs[i], sink: &sinks[i],
		}
		ni.inj.OnFirstFlit = onFirstFlit
		if replay != nil {
			ni.gens = sim.Carve(&srcs, 1)
			ni.gens[0] = trace.NewReplayer(replay[spec.Name])
		} else {
			ni.gens = sim.Carve(&srcs, len(spec.Streams))
			for j, s := range spec.Streams {
				// Generators walk the global bank space: with C channels of
				// B banks each, banks [0, C*B) spread the streams across
				// every channel; C=1 is exactly the single-device walk.
				g, gr := &sim.Carve(&gens, 1)[0], &sim.Carve(&rngs, 1)[0]
				*gr = *sim.NewRNG(rng.Uint64())
				if err := g.Init(s, cfg.Channels*r.timing.Banks, appmodel.RowBeats, cfg.PriorityDemand, gr, sim.Carve(&counts, len(s.Beats))); err != nil {
					return err
				}
				ni.gens[j] = g
			}
		}
		r.cores[i] = ni
	}
	return nil
}

// maxRequestBeats returns the largest single-request beat count the
// resolved workload can present: the max over the replay records in
// replay mode, over every stream's burst-size menu otherwise. It feeds
// the DPQ WCET bound (the worst-case interference unit) and the
// regulator's budget floor.
func maxRequestBeats(cfg Config) int {
	m := 1
	if len(cfg.Replay) > 0 {
		for _, rec := range cfg.Replay {
			if rec.Beats > m {
				m = rec.Beats
			}
		}
		return m
	}
	for _, c := range cfg.App.Cores {
		for _, s := range c.Streams {
			for _, b := range s.Beats {
				if b > m {
					m = b
				}
			}
		}
	}
	return m
}

// installAllocators sets every router output's flow-control policy
// according to the design and the Fig. 8 GSS-router count; the GSS
// routers are the ones nearest the memory ports. Each kind of policy
// comes from one exactly-sized slab, an element per output port.
func (r *Runner) installAllocators(ports []noc.Coord) error {
	cfg := r.cfg
	n := len(r.reqMesh.Routers)
	if cfg.Design.usesGSSEngine() {
		order := mapping.RoutersByPortDistance(cfg.App.Width, cfg.App.Height, ports)
		if k := cfg.GSSRouters; k != 0 && k < len(order) { // 0 or past the mesh: all of them
			order = order[:max(k, 0)]
		}
		// Router order, the order the allocators are carved in below.
		slices.SortFunc(order, func(a, b noc.Coord) int { return (a.Y-b.Y)*cfg.App.Width + a.X - b.X })
		r.gssRouters = make([]*noc.Router, len(order))
		for i, c := range order {
			r.gssRouters[i] = r.reqMesh.RouterAt(c)
		}
	}
	// Non-GSS routers in a priority design (and the Fig. 8 baseline
	// remainder) are priority-first round-robin, the rest plain
	// round-robin.
	reqPF := cfg.Design.priorityFirstNet() || cfg.Design.usesGSSEngine()
	rest := (n - len(r.gssRouters)) * noc.NumPorts
	rrs := make([]router.RoundRobin, n*noc.NumPorts+rest)
	nPF := n * noc.NumPorts
	if reqPF {
		nPF += rest
	}
	pfs := make([]router.PriorityFirst, nPF)
	roundRobin := func(int) noc.Allocator { return &sim.Carve(&rrs, 1)[0] }
	priorityFirst := func(int) noc.Allocator {
		pf := &sim.Carve(&pfs, 1)[0]
		pf.Inner = roundRobin(0)
		return pf
	}
	// Response mesh: priority-first round-robin everywhere — without
	// priority flags (Table I runs, CONV/[4] baselines) this is plain
	// round-robin; with them, read data for priority requests overtakes
	// best-effort responses at every merge, the return half of the
	// guaranteed service.
	for _, rt := range r.respMesh.Routers {
		rt.SetAllAllocators(priorityFirst)
	}
	if len(r.gssRouters) > 0 {
		gssCfg := core.Config{Banks: r.timing.Banks, Subarrays: r.timing.Subarrays}
		if cfg.Design.usesSTI() {
			gssCfg.STI = core.STIParams{Enabled: true, WriteIdle: r.timing.TWR + r.timing.TRP, ReadIdle: r.timing.TRP}
		}
		gssCfg.PCT = cfg.Design.pctFor(cfg.PCT, gssCfg.MaxTokens())
		var err error
		if r.gssAllocs, err = core.NewSlab(gssCfg, len(r.gssRouters)*noc.NumPorts); err != nil {
			return err
		}
	}
	gss, gssRts := r.gssAllocs, r.gssRouters
	for _, rt := range r.reqMesh.Routers {
		switch {
		case len(gssRts) > 0 && gssRts[0] == rt:
			gssRts = gssRts[1:]
			rt.SetAllAllocators(func(int) noc.Allocator { return &sim.Carve(&gss, 1)[0] })
		case reqPF:
			rt.SetAllAllocators(priorityFirst)
		default:
			rt.SetAllAllocators(roundRobin)
		}
	}
	return nil
}
