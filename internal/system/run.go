package system

import (
	"context"
	"fmt"
	"os"

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

// Config specifies one simulation run.
type Config struct {
	App      appmodel.App
	Gen      dram.Generation
	ClockMHz int // 0: the application's clock for Gen
	Design   Design

	// Subarrays enables MASA-style subarray-level parallelism: each bank
	// carries this many independent row buffers (rows map to buffers by
	// row mod Subarrays), so same-bank accesses to different subarrays
	// proceed without a precharge/activate cycle. 0 or 1 is the classic
	// one-buffer bank, byte-identical to runs predating the knob. The
	// structure is plumbed end to end: device timing, controller hazards,
	// GSS conflict filters and the checked-mode shadow monitor all see it.
	Subarrays int

	// Channels is the number of independent SDRAM channels (default 1).
	// Each channel is its own controller/device pair behind its own mesh
	// ejection port (App.MemPorts); a request's owning channel is a pure
	// function of its address under the Scheme interleaving policy.
	// Channels must not exceed the application model's port count.
	// Channels=1 reproduces the single-SDRAM system exactly.
	Channels int
	// Scheme selects the channel-interleaving policy (default
	// mapping.BankThenChannel; the XOR scheme needs a power-of-two
	// channel count). Irrelevant single-channel.
	Scheme mapping.ChannelScheme

	// Scheduler overrides the memory scheduler on every channel
	// (default memctrl.SchedDefault: the paper's pairing of MemMax for
	// conventional designs and the lightweight controller otherwise).
	// The zoo members — SchedDPQ, SchedRegulated, SchedStaged — replace
	// the controller while keeping the design's network unchanged, so a
	// sweep isolates the scheduler axis. Checked runs additionally arm
	// the scheduler's guarantee monitor: the DPQ analytic WCET bound per
	// request, or the per-bank regulation-window invariant.
	Scheduler memctrl.Scheduler

	// PCT is the hybrid priority control token for GSS designs
	// (default 3; [4] and [4]+PFS override it).
	PCT int
	// GSSRouters limits how many routers (nearest the memory first) run
	// the GSS engine: 0 (the default) means all of them, -1 means none
	// (the Fig. 8 baseline), and a positive k replaces exactly the k
	// routers closest to the memory subsystem (the Fig. 8 sweep).
	GSSRouters int

	// PriorityDemand marks CPU demand requests as priority packets
	// (Table II); Table I runs with it off.
	PriorityDemand bool

	Cycles int64
	// Warmup is the cycle latency samples start after (default Cycles/10).
	// Zero selects the default; an explicit no-warmup run is requested
	// with the sentinel -1, since the zero value cannot express it. The
	// sentinel survives Resolved (it normalises any negative value to -1,
	// keeping resolution idempotent) and samples from cycle 0.
	Warmup int64
	// Seed seeds the deterministic RNG. Zero selects the fixed default
	// seed 0xA11CE — the zero value must be runnable and deterministic —
	// so "seed zero" itself is not expressible; every run is seeded.
	Seed uint64

	// BufFlits sizes router input buffers (default 8 flits per virtual
	// channel).
	BufFlits int
	// VirtualChannels selects the buffer organisation of both meshes:
	// 1 (default) is the paper's wormhole implementation; 2 adds a
	// priority virtual channel so priority packets overtake long
	// best-effort transfers at flit granularity — the alternative
	// blocking remedy the paper contrasts SAGM splitting with.
	VirtualChannels int
	// AdaptiveRouting switches both meshes from the paper's XY routing to
	// the west-first adaptive turn model: packets with several minimal
	// paths take the least congested one (the paper's output-scheduler
	// discussion for adaptive routers).
	AdaptiveRouting bool
	// InjectCap is the NI injection backlog in flits beyond which the
	// traffic source stalls (default 64).
	InjectCap int
	// MemPipeline is the command pipeline depth of the lightweight
	// controller (default 8, pinned by TestWithDefaultsPinned — the
	// sweep fingerprint cache keys on the resolved value, so the default
	// must not drift silently).
	MemPipeline int
	// SplitGranularity overrides the SAGM split size in beats (ablation);
	// 0 uses the paper's per-generation value.
	SplitGranularity int
	// Trace, when set, records every generated logical request (capture
	// mode); Replay, when non-empty, replaces the application's synthetic
	// generators with the recorded requests (replay mode) — identical
	// workloads across designs.
	Trace  *trace.Writer
	Replay []trace.Record

	// SampleEvery, when positive, collects an observability time-series
	// sample every SampleEvery cycles into the run report (Result.Obs):
	// windowed data-bus utilization, outstanding logical requests and
	// queue occupancies. Zero disables sampling; the rest of the report
	// is collected either way. Sampling never feeds back into the
	// simulation, so it cannot perturb results.
	SampleEvery int64

	// SpecHash identifies the scenario spec the configuration was
	// resolved from (scenario.Spec.Hash; empty for builtin app models).
	// It never perturbs the simulation, but the sweep fingerprint keys
	// on it so two spec-driven runs with different workload content
	// never share a cache entry even if their resolved app models
	// coincide by name.
	SpecHash string
	// WorkloadStats includes the per-stream production breakdown
	// (obs.Report.Workload: read/write split, burst-size histogram,
	// blocked cycles) in the run report — the input of the scenario
	// calibration layer. Off by default so default sidecars stay
	// byte-identical; the counters themselves are always maintained.
	WorkloadStats bool

	// Checked enables the internal/check invariant layer: a DRAM protocol
	// conformance monitor on the device's command stream, per-cycle
	// credit/flit conservation audits over both meshes, and end-of-run
	// request/token/report accounting. Costs nothing when off (one nil
	// check per cycle); when on, violations accumulate into
	// Result.Obs.Violations. Checked runs produce the same simulation
	// results as unchecked runs — the monitors only observe.
	Checked bool
	// CheckedPanic makes the first violation panic at its detection point
	// instead of accumulating — the mode the test harnesses run under, so
	// a breach pinpoints its cycle. Implies Checked.
	CheckedPanic bool
	// Fault arms one deliberately broken device rule on every channel —
	// the mutation knob that lets an end-to-end run prove checked mode
	// turns the breach into violations. Unlike every other field it makes
	// results wrong on purpose, so sweep.Fingerprint refuses to cache a
	// faulted config. Only cmd/aanoc-sim sets it (AANOC_INJECT_FAULT).
	Fault dram.Fault

	// TagEveryRequest reverts to the paper's literal partially-open-page
	// policy: every logical request's last split carries the AP tag, so
	// the bank closes after every request. The default tags only the
	// stream's final access to a row (the network interface knows its
	// address walk), keeping rows open for known upcoming hits. The
	// paper-literal mode is where the short turn-around interleaving
	// (STI) counters matter: at high DDR3 clocks a closed bank needs
	// tWR+tRP+tRCD cycles before it can serve the next same-row request,
	// and the Fig. 4(b) filters steer other banks' traffic in between.
	TagEveryRequest bool
	// PagePolicy overrides the memory page policy (ablation); nil uses
	// the design's policy.
	PagePolicy *memctrl.PagePolicy
}

// Result carries one run's measurements.
type Result struct {
	Design   Design
	App      string
	Gen      dram.Generation
	ClockMHz int
	Cycles   int64
	// Scheduler is the memory scheduler the run used; Channels its SDRAM
	// channel count (both resolved, so table rows can carry them).
	Scheduler memctrl.Scheduler
	Channels  int

	Utilization float64
	LatAll      float64
	LatDemand   float64
	LatPriority float64
	LatBest     float64
	P95All      int64

	Generated int64
	Completed int64

	Device dram.Stats
	// WasteFrac is the fraction of transferred beats the requester never
	// asked for (access granularity mismatch, Fig. 2).
	WasteFrac float64

	// NetBusyCycles sums flit transfers over all request-mesh outputs;
	// GSSGrants counts GSS channel allocations; CmdCycles counts
	// command-bus activity — inputs to the Table V power model.
	NetBusyCycles int64
	GSSGrants     int64
	CmdCycles     int64

	// PerCore breaks service down by requesting core; Fairness is Jain's
	// index over per-core served beats (1 = perfectly proportional
	// service, 1/n = one core monopolises the memory).
	PerCore  []CoreStats
	Fairness float64

	// Obs is the run-level observability report: per-link utilization
	// and grants, per-NI backlog high-water marks and stall cycles, the
	// per-bank DRAM breakdown, and (when Config.SampleEvery is set) the
	// time series. Always populated by Finish; serialized by the CLI
	// JSON sidecars.
	Obs *obs.Report
}

// Resolved returns the configuration with every defaulted field filled
// in — the exact parameters a run would execute. Sweep fingerprinting
// keys on the resolved form so distinct spellings of the same run (a
// zero field versus its default written out) share one cache entry.
func (c Config) Resolved() Config { return c.withDefaults() }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ClockMHz == 0 {
		c.ClockMHz = c.App.Clocks[c.Gen]
	}
	if c.ClockMHz == 0 {
		// Application models predating a generation (the builtin media
		// platforms carry DDR1-3 clocks only) default to its fastest
		// standard speed grade.
		c.ClockMHz = dram.DefaultClock(c.Gen)
	}
	if c.PCT == 0 {
		c.PCT = 3
	}
	if c.Cycles == 0 {
		c.Cycles = 200_000
	}
	if c.Warmup == 0 {
		c.Warmup = c.Cycles / 10
	} else if c.Warmup < 0 {
		// The -1 sentinel (an explicit no-warmup run) must not resolve to
		// 0: re-resolving would re-fill the default, and two configs that
		// run identically would fingerprint apart. Generation cycles are
		// never negative, so "gen >= -1" samples everything.
		c.Warmup = -1
	}
	if c.Seed == 0 {
		c.Seed = 0xA11CE
	}
	if c.BufFlits == 0 {
		c.BufFlits = 8
	}
	if c.VirtualChannels == 0 {
		c.VirtualChannels = 1
	}
	if c.InjectCap == 0 {
		c.InjectCap = 64
	}
	if c.MemPipeline == 0 {
		c.MemPipeline = 8
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.CheckedPanic {
		c.Checked = true
	}
	return c
}

// logical tracks an outstanding logical request across its splits.
type logical struct {
	gen      int64 // generation cycle at the core
	entry    int64 // cycle the first flit entered the request mesh (-1 until then)
	stream   traffic.Source
	class    noc.Class
	priority bool
	read     bool
	pending  int
	core     int
	beats    int
}

// parentTable maps logical-request parent IDs to their records without
// hashing. Parent IDs are monotonic packet IDs, so the live IDs occupy a
// window [base, base+len(slots)): lookup is a bounds check plus an
// index, and completion trims the dead head so the window tracks the
// outstanding range. IDs that were never parents leave nil gap slots;
// the map hashing this replaces was a top bucket on the saturated-load
// profile.
type parentTable struct {
	base  int64      // ID of slots[0]
	slots []*logical // nil: completed, or an ID that was never a parent
	live  int
}

// get returns the record for an ID, or nil.
func (t *parentTable) get(id int64) *logical {
	i := id - t.base
	if i < 0 || i >= int64(len(t.slots)) {
		return nil
	}
	return t.slots[i]
}

// put registers a record under a fresh ID (IDs only grow).
func (t *parentTable) put(id int64, l *logical) {
	if len(t.slots) == 0 {
		t.base = id
	}
	for id-t.base >= int64(len(t.slots)) {
		t.slots = append(t.slots, nil)
	}
	t.slots[id-t.base] = l
	t.live++
}

// del drops an ID's record and advances the window past the dead head.
// Each slot is trimmed exactly once, so deletion is amortised O(1).
func (t *parentTable) del(id int64) {
	i := id - t.base
	if i < 0 || i >= int64(len(t.slots)) || t.slots[i] == nil {
		return
	}
	t.slots[i] = nil
	t.live--
	n := 0
	for n < len(t.slots) && t.slots[n] == nil {
		n++
	}
	if n > 0 {
		t.slots = t.slots[n:]
		t.base += int64(n)
	}
}

// Len reports the live record count.
func (t *parentTable) Len() int { return t.live }

// each visits every live record in ID order.
func (t *parentTable) each(fn func(id int64, l *logical)) {
	for i, l := range t.slots {
		if l != nil {
			fn(t.base+int64(i), l)
		}
	}
}

// coreNI is one core's network interface: traffic generators, request
// injector and response sink.
type coreNI struct {
	spec appmodel.Core
	gens []traffic.Source
	inj  *noc.Injector
	sink *noc.Sink
}

// Runner is a fully wired simulation; Step advances it cycle by cycle.
// Most callers use Run; Runner is exported for examples and tests that
// want mid-run visibility.
type Runner struct {
	cfg    Config
	timing dram.Timing

	// The memory subsystem is one controller/device/port tuple per
	// channel, all slices indexed by channel. chmap owns the global-bank
	// interleaving; ports[ch] is channel ch's mesh ejection coordinate.
	// Single-channel runs are the one-element case of the same wiring.
	devs     []*dram.Device
	ctrls    []memctrl.Controller
	memSinks []*noc.Sink
	respInjs []*noc.Injector
	ports    []noc.Coord
	chmap    mapping.ChannelMap
	// chSent/chDone count split packets routed to and completed by each
	// channel — the per-channel conservation ledger (checked mode) and
	// the obs per-channel Splits/Completions counters.
	chSent, chDone []int64

	reqMesh, respMesh *noc.Mesh

	cores   []*coreNI
	bySrc   map[noc.Coord]*coreNI
	parents parentTable

	split  *core.Splitter // nil when the design does not split
	nextID int64

	// Free-lists for the per-request allocations on the saturated hot
	// path: packets cycle core→mesh→controller→(response mesh)→core and
	// are recycled at their completion points, so steady state allocates
	// nothing per request. Everything downstream that outlives a packet
	// (controller `last` state, GSS history) holds value copies, never
	// pointers, so recycling is safe.
	pktFree []*noc.Packet
	logFree []*logical

	met       stats.Metrics
	coreStats []CoreStats

	// The simulation kernel owns the clock; the handles are the wake
	// targets of cross-component events (admissions wake the controller,
	// completions wake the response injector and the requesting core's
	// generators).
	kern      *sim.Kernel
	hMems     []*sim.Handle // indexed by channel
	hRespInjs []*sim.Handle // indexed by channel
	hInject   []*sim.Handle // indexed like cores

	// Observability state: per-core stall cycles (indexed like cores),
	// the collected time series, and the data-cycle watermark of the
	// last sample window.
	stalls      []int64
	samples     []obs.Sample
	lastSampleD int64

	gssAllocs []*core.GSS

	// Checked-mode state: nil unless Config.Checked. genPerCore mirrors
	// met.Generated per requesting core for the end-of-run accounting.
	// dpqMons/regMons are the per-channel scheduler-guarantee monitors
	// (empty unless the matching zoo scheduler is selected).
	chk        *check.Checker
	genPerCore []int64
	dpqMons    []*check.DPQMonitor
	regMons    []*check.RegulatorMonitor

	// maxBeats is the largest single-request beat count the resolved
	// workload can present — the interference unit of the DPQ WCET bound
	// and the regulator's budget floor.
	maxBeats int
}

// CoreStats is the per-core service breakdown of one run.
type CoreStats struct {
	Name       string
	Completed  int64
	Beats      int64 // useful beats served
	LatencySum int64 // generation-to-completion, summed
}

// MeanLatency returns the core's average request latency.
func (c CoreStats) MeanLatency() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.Completed)
}

// New wires a simulation for the configuration.
func New(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.App.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleEvery < 0 {
		// The facade rejects this with ErrBadSampleEvery; rejecting it
		// here too keeps direct system.Config users (aanoc-sim and the
		// other CLIs) on the same validation surface.
		return nil, fmt.Errorf("system: negative sampling interval %d", cfg.SampleEvery)
	}
	timing, err := dram.Speed(cfg.Gen, cfg.ClockMHz)
	if err != nil {
		return nil, err
	}
	if cfg.Design.usesSAGM() && !timing.OTF {
		// SAGM matches the access granularity with BL4 bursts; devices
		// with on-the-fly burst chop (DDR3/DDR4) stay in BL8 mode and chop
		// per command instead.
		timing = timing.WithDeviceBL(4)
	}
	if cfg.Subarrays < 0 {
		return nil, fmt.Errorf("system: negative subarray count %d", cfg.Subarrays)
	}
	timing = timing.WithSubarrays(cfg.Subarrays)
	allPorts := cfg.App.Ports()
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("system: channels must be at least 1, got %d", cfg.Channels)
	}
	if cfg.Channels > len(allPorts) {
		return nil, fmt.Errorf("system: app %s exposes %d memory port(s) but the config asks for %d channels",
			cfg.App.Name, len(allPorts), cfg.Channels)
	}
	chmap, err := mapping.NewChannelMap(cfg.Scheme, cfg.Channels, timing.Banks)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:    cfg,
		timing: timing,
		ports:  allPorts[:cfg.Channels],
		chmap:  chmap,
		chSent: make([]int64, cfg.Channels),
		chDone: make([]int64, cfg.Channels),
		bySrc:  map[noc.Coord]*coreNI{},
	}
	if r.reqMesh, err = noc.NewMeshVC(cfg.App.Width, cfg.App.Height, cfg.BufFlits, cfg.VirtualChannels); err != nil {
		return nil, err
	}
	if r.respMesh, err = noc.NewMeshVC(cfg.App.Width, cfg.App.Height, cfg.BufFlits, cfg.VirtualChannels); err != nil {
		return nil, err
	}
	if cfg.AdaptiveRouting {
		r.reqMesh.SetRouting(noc.RoutingWestFirst)
		r.respMesh.SetRouting(noc.RoutingWestFirst)
	}
	r.installAllocators()

	// Memory subsystem attachment, one controller/device pair behind each
	// channel's ejection port.
	if !cfg.Scheduler.Valid() {
		return nil, fmt.Errorf("system: unknown scheduler %d", int(cfg.Scheduler))
	}
	r.maxBeats = maxRequestBeats(cfg)
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
	for ch := 0; ch < cfg.Channels; ch++ {
		ch := ch
		dev, err := dram.NewDevice(timing)
		if err != nil {
			return nil, err
		}
		r.devs = append(r.devs, dev)
		r.memSinks = append(r.memSinks, r.reqMesh.AttachSink(r.ports[ch], 2*cfg.BufFlits, memReady))
		r.respInjs = append(r.respInjs, r.respMesh.AttachInjector(r.ports[ch]))

		onDone := func(c memctrl.Completion) { r.onMemDone(ch, c) }
		var ctrl memctrl.Controller
		switch cfg.Scheduler {
		case memctrl.SchedDPQ:
			ctrl = memctrl.NewDPQ(dev, memctrl.DefaultDPQConfig(len(cfg.App.Cores)), onDone)
		case memctrl.SchedRegulated:
			rc := memctrl.DefaultRegulatorConfig(len(cfg.App.Cores))
			rc.MinBudget = int64(r.maxBeats)
			rc.PipelineDepth = cfg.MemPipeline
			rc.Policy = policy
			ctrl = memctrl.NewRegulator(dev, rc, onDone)
		case memctrl.SchedStaged:
			sc := memctrl.DefaultStagedConfig(len(cfg.App.Cores))
			sc.PipelineDepth = cfg.MemPipeline
			sc.Policy = policy
			ctrl = memctrl.NewStaged(dev, sc, onDone)
		default:
			if cfg.Design.usesMemMax() {
				mm := memctrl.DefaultMemMaxConfig()
				mm.PriorityFirst = cfg.Design == ConvPFS
				// The bus-level scheduler hands one transaction at a time to the
				// controller, whose command look-ahead prepares the next page
				// while the current data transfers (a window of two).
				mm.PipelineDepth = 2
				ctrl = memctrl.NewMemMax(dev, mm, onDone)
			} else {
				ctrl = memctrl.NewSimple(dev, policy, cfg.MemPipeline, onDone)
			}
		}
		r.ctrls = append(r.ctrls, ctrl)
	}

	if cfg.Design.usesSAGM() {
		g := cfg.SplitGranularity
		if g == 0 {
			g = core.SplitGranularity(int(cfg.Gen))
		}
		r.split = &core.Splitter{GranularityBeats: g, Alloc: r.allocPkt}
	}

	// Cores: traffic sources + NIs. In replay mode the recorded requests
	// replace the synthetic generators.
	rng := sim.NewRNG(cfg.Seed)
	var replay map[string][]trace.Record
	if len(cfg.Replay) > 0 {
		replay = trace.SplitByCore(cfg.Replay)
	}
	for _, spec := range cfg.App.Cores {
		ni := &coreNI{
			spec: spec,
			inj:  r.reqMesh.AttachInjector(spec.Pos),
			sink: r.respMesh.AttachSink(spec.Pos, 2*cfg.BufFlits, 16),
		}
		ni.inj.OnFirstFlit = func(p *noc.Packet, now int64) {
			if l := r.parents.get(p.ParentID); l != nil && l.entry < 0 {
				l.entry = now
			}
		}
		if replay != nil {
			ni.gens = append(ni.gens, trace.NewReplayer(replay[spec.Name]))
		} else {
			for _, s := range spec.Streams {
				// Generators walk the global bank space: with C channels of
				// B banks each, banks [0, C*B) spread the streams across
				// every channel; C=1 is exactly the single-device walk.
				g, err := traffic.NewGen(s, cfg.Channels*timing.Banks, appmodel.RowBeats, cfg.PriorityDemand, sim.NewRNG(rng.Uint64()))
				if err != nil {
					return nil, err
				}
				ni.gens = append(ni.gens, g)
			}
		}
		r.cores = append(r.cores, ni)
		r.bySrc[spec.Pos] = ni
		r.coreStats = append(r.coreStats, CoreStats{Name: spec.Name})
	}
	r.stalls = make([]int64, len(r.cores))
	if cfg.Checked {
		r.installChecks()
	}
	r.buildKernel()
	if os.Getenv("AANOC_NO_IDLE_SKIP") != "" {
		// Escape hatch (and CI equivalence gate): tick every cycle even
		// when every component sleeps. Results are identical either way.
		r.kern.SetIdleSkip(false)
	}
	for _, d := range r.devs {
		d.InjectFault(cfg.Fault)
	}
	return r, nil
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
// according to the design and the Fig. 8 GSS-router count.
func (r *Runner) installAllocators() {
	cfg := r.cfg
	// Response mesh: priority-first round-robin everywhere — without
	// priority flags (Table I runs, CONV/[4] baselines) this is plain
	// round-robin; with them, read data for priority requests overtakes
	// best-effort responses at every merge, the return half of the
	// guaranteed service.
	for _, rt := range r.respMesh.Routers {
		rt.SetAllAllocators(func(int) noc.Allocator {
			return &router.PriorityFirst{Inner: &router.RoundRobin{}}
		})
	}
	gssSet := map[noc.Coord]bool{}
	if cfg.Design.usesGSSEngine() {
		order := mapping.RoutersByPortDistance(cfg.App.Width, cfg.App.Height, r.ports)
		n := cfg.GSSRouters
		switch {
		case n == 0 || n > len(order):
			n = len(order)
		case n < 0:
			n = 0
		}
		for _, c := range order[:n] {
			gssSet[c] = true
		}
	}
	sti := core.STIParams{}
	if cfg.Design.usesSTI() {
		sti = core.STIParams{
			Enabled:   true,
			WriteIdle: r.timing.TWR + r.timing.TRP,
			ReadIdle:  r.timing.TRP,
		}
	}
	gssCfg := core.Config{Banks: r.timing.Banks, Subarrays: r.timing.Subarrays, STI: sti}
	gssCfg.PCT = cfg.Design.pctFor(cfg.PCT, gssCfg.MaxTokens())
	for _, rt := range r.reqMesh.Routers {
		switch {
		case gssSet[rt.Pos]:
			rt.SetAllAllocators(func(int) noc.Allocator {
				g := core.MustNew(gssCfg)
				r.gssAllocs = append(r.gssAllocs, g)
				return g
			})
		case cfg.Design.priorityFirstNet() || cfg.Design.usesGSSEngine():
			// Non-GSS routers in a priority design (and the Fig. 8
			// baseline remainder) are priority-first round-robin.
			rt.SetAllAllocators(func(int) noc.Allocator {
				return &router.PriorityFirst{Inner: &router.RoundRobin{}}
			})
		default:
			rt.SetAllAllocators(func(int) noc.Allocator { return &router.RoundRobin{} })
		}
	}
}

// allocPkt leases a packet from the free-list (or allocates the pool's
// first copies). Callers overwrite every field, so no zeroing on lease.
func (r *Runner) allocPkt() *noc.Packet {
	if n := len(r.pktFree); n > 0 {
		p := r.pktFree[n-1]
		r.pktFree = r.pktFree[:n-1]
		return p
	}
	return new(noc.Packet)
}

// freePkt returns a packet to the free-list. The caller asserts nothing
// holds the pointer any more: the packet has left both meshes and the
// controller, and all retained history (controller `last`, GSS state) is
// by value. Zeroed so a stale read after recycling is loud, not subtle.
func (r *Runner) freePkt(p *noc.Packet) {
	*p = noc.Packet{}
	r.pktFree = append(r.pktFree, p)
}

// allocLogical / freeLogical pool the split-chain bookkeeping records the
// same way (one per logical request, recycled at completion).
func (r *Runner) allocLogical() *logical {
	if n := len(r.logFree); n > 0 {
		l := r.logFree[n-1]
		r.logFree = r.logFree[:n-1]
		return l
	}
	return new(logical)
}

func (r *Runner) freeLogical(l *logical) {
	*l = logical{}
	r.logFree = append(r.logFree, l)
}

// onMemDone handles a controller completion on one channel: writes
// complete the split immediately; reads send a response packet back
// through the response mesh from the channel's port. Either way the
// request packet is finished with and returns to the pool.
func (r *Runner) onMemDone(ch int, c memctrl.Completion) {
	r.chDone[ch]++
	p := c.Pkt
	if p.Kind == noc.Write {
		r.completeSplit(p, c.At)
		r.freePkt(p)
		return
	}
	r.nextID++
	resp := r.allocPkt()
	*resp = noc.Packet{
		ID: r.nextID, ParentID: p.ParentID,
		SrcCore: p.SrcCore, Src: r.ports[ch], Dst: p.Src,
		Kind: noc.Read, Class: p.Class, Priority: p.Priority,
		Addr: p.Addr, Beats: p.Beats,
		Flits: noc.FlitsForBeats(p.Beats), Splits: p.Splits,
		Gen: p.Gen, Response: true,
	}
	r.freePkt(p)
	r.respInjs[ch].Enqueue(resp)
	// Completions fire in the MemTick phase; the response injector's
	// Inject slot is later this same cycle, as in the monolithic step.
	r.hRespInjs[ch].Wake(r.kern.Now())
}

// completeSplit retires one split of a logical request; the last one
// records the latency sample and unblocks a closed-loop stream.
func (r *Runner) completeSplit(p *noc.Packet, at int64) {
	l := r.parents.get(p.ParentID)
	if l == nil {
		return
	}
	l.pending--
	if l.pending > 0 {
		return
	}
	r.parents.del(p.ParentID)
	if l.core >= 0 && l.core < len(r.coreStats) {
		cs := &r.coreStats[l.core]
		cs.Completed++
		cs.Beats += int64(l.beats)
		cs.LatencySum += at - l.gen
	}
	if l.gen >= r.cfg.Warmup {
		entry := l.entry
		if entry < 0 {
			entry = l.gen
		}
		r.met.Record(at-entry, l.class == noc.ClassDemand, l.priority, l.read)
		r.met.SourceLatency.Add(at - l.gen)
	} else {
		r.met.Completed++
	}
	l.stream.OnComplete(at)
	// The completion refills a closed-loop window: the stream can
	// generate no earlier than next cycle (think time is at least one),
	// so wake the core's injection component then and let its NextWake
	// refine the estimate.
	if l.core >= 0 && l.core < len(r.hInject) {
		r.hInject[l.core].Wake(r.kern.Now() + 1)
	}
	r.freeLogical(l)
}

// Step advances the whole system one memory clock cycle: every awake
// component ticks in kernel phase order. Cycle-stepping callers visit
// every cycle; RunTo additionally fast-forwards over all-idle spans.
func (r *Runner) Step() { r.kern.Step() }

// RunTo advances the simulation to the given cycle, skipping spans
// where every component sleeps (unless idle-skip is disabled).
func (r *Runner) RunTo(cycle int64) { r.kern.RunUntil(cycle) }

// SetIdleSkip toggles fast-forwarding over all-idle cycles in RunTo.
// On (the default) and off produce identical results; off is the
// reference mode the equivalence tests and the AANOC_NO_IDLE_SKIP
// environment knob select.
func (r *Runner) SetIdleSkip(on bool) { r.kern.SetIdleSkip(on) }

// sample appends one time-series point at the given cycle, covering the
// window of the last interval cycles.
func (r *Runner) sample(cycle, interval int64) {
	queued := 0
	for _, c := range r.cores {
		queued += c.inj.QueueFlits()
	}
	var dc int64
	ready := 0
	for ch := range r.devs {
		dc += r.devs[ch].Stats().DataCycles
		ready += r.memSinks[ch].Ready()
	}
	// Multi-channel windows report the mean per-channel utilization, so
	// the [0,1] bound holds at any channel count.
	r.samples = append(r.samples, obs.Sample{
		Cycle:       cycle,
		Utilization: float64(dc-r.lastSampleD) / float64(interval*int64(len(r.devs))),
		Outstanding: r.parents.Len(),
		QueueFlits:  queued,
		MemReady:    ready,
	})
	r.lastSampleD = dc
}

// injectLogical packetises a logical request (splitting under SAGM) and
// queues the packets for injection.
func (r *Runner) injectLogical(c *coreNI, g traffic.Source, req *traffic.Request, now int64) {
	if r.cfg.Trace != nil {
		if err := r.cfg.Trace.Write(trace.FromRequest(now, c.spec.Name, req)); err != nil {
			panic(fmt.Sprintf("system: trace capture failed: %v", err))
		}
	}
	// Route the request to its owning channel before splitting: SAGM
	// splits never cross a row, so the whole split chain shares one
	// channel, and the packets carry the channel-local address the
	// owning device decodes. Single-channel routing is the identity.
	ch, local := r.chmap.Route(req.Addr)
	r.nextID++
	base := r.allocPkt()
	*base = noc.Packet{
		ID: r.nextID, ParentID: r.nextID,
		SrcCore: indexOf(r.cores, c), Src: c.spec.Pos, Dst: r.ports[ch],
		Kind: req.Kind, Class: req.Class, Priority: req.Priority,
		Addr: local, Beats: req.Beats, Gen: now,
		APTag: req.EndOfRow || r.cfg.TagEveryRequest,
	}
	var pkts []*noc.Packet
	if r.split != nil {
		var err error
		pkts, err = r.split.Split(base, func() int64 { r.nextID++; return r.nextID })
		if err != nil {
			panic(fmt.Sprintf("system: split failed: %v", err))
		}
	} else {
		pkts = core.NoSplit(base)
	}
	l := r.allocLogical()
	*l = logical{
		gen: now, entry: -1, stream: g, class: req.Class, priority: req.Priority,
		read: req.Kind == noc.Read, pending: len(pkts),
		core: base.SrcCore, beats: req.Beats,
	}
	r.parents.put(base.ID, l)
	r.met.Generated++
	r.chSent[ch] += int64(len(pkts))
	if r.genPerCore != nil && base.SrcCore >= 0 {
		r.genPerCore[base.SrcCore]++
	}
	// A write split under SAGM replaces the base packet with per-granule
	// copies; the base itself never enters the mesh, so recycle it now
	// (its ID lives on as the chain's ParentID key, which is by value).
	if len(pkts) > 0 && pkts[0] != base {
		r.freePkt(base)
	}
	for _, p := range pkts {
		c.inj.Enqueue(p)
	}
}

func indexOf(cores []*coreNI, c *coreNI) int {
	for i, x := range cores {
		if x == c {
			return i
		}
	}
	return -1
}

// Metrics exposes the accumulating measurements (examples, tests).
func (r *Runner) Metrics() *stats.Metrics { return &r.met }

// Device exposes channel 0's DRAM device (examples, tests; the only
// device single-channel).
func (r *Runner) Device() *dram.Device { return r.devs[0] }

// Devices exposes every channel's DRAM device, in channel order.
func (r *Runner) Devices() []*dram.Device { return r.devs }

// aggStats sums the device counters over every channel. Single-channel
// it is exactly the one device's stats.
func (r *Runner) aggStats() dram.Stats {
	var st dram.Stats
	for _, d := range r.devs {
		s := d.Stats()
		st.Activates += s.Activates
		st.Reads += s.Reads
		st.Writes += s.Writes
		st.Precharges += s.Precharges
		st.AutoPre += s.AutoPre
		st.Refreshes += s.Refreshes
		st.DataCycles += s.DataCycles
		st.BurstsBL += s.BurstsBL
		st.UsefulBeats += s.UsefulBeats
	}
	return st
}

// utilization returns the mean per-channel data-bus utilization (the
// single device's utilization when single-channel).
func (r *Runner) utilization(now int64) float64 {
	var u float64
	for _, d := range r.devs {
		u += d.Utilization(now)
	}
	return u / float64(len(r.devs))
}

// Now returns the current cycle.
func (r *Runner) Now() int64 { return r.kern.Now() }

// Finish assembles the Result after the run.
func (r *Runner) Finish() Result {
	cfg := r.cfg
	now := r.kern.Now()
	// Settle the device through the last simulated cycle: the controller
	// may have slept through the run's tail, leaving auto-precharges
	// pending that the old every-cycle tick would have retired.
	if now > 0 {
		for _, d := range r.devs {
			d.Sync(now - 1)
		}
	}
	st := r.aggStats()
	r.met.Cycles = now
	res := Result{
		Design: cfg.Design, App: cfg.App.Name, Gen: cfg.Gen, ClockMHz: cfg.ClockMHz,
		Scheduler:   cfg.Scheduler,
		Channels:    cfg.Channels,
		Cycles:      now,
		Utilization: r.utilization(now),
		LatAll:      r.met.All.Mean(),
		LatDemand:   r.met.Demand.Mean(),
		LatPriority: r.met.Priority.Mean(),
		LatBest:     r.met.Best.Mean(),
		P95All:      r.met.All.Percentile(95),
		Generated:   r.met.Generated,
		Completed:   r.met.Completed,
		Device:      st,
		CmdCycles:   st.Activates + st.Reads + st.Writes + st.Precharges + st.Refreshes,
	}
	if st.BurstsBL > 0 {
		res.WasteFrac = float64(st.BurstsBL-st.UsefulBeats) / float64(st.BurstsBL)
	}
	for _, rt := range r.reqMesh.Routers {
		for p := 0; p < noc.NumPorts; p++ {
			res.NetBusyCycles += rt.Out[p].BusyCycles
		}
	}
	for _, g := range r.gssAllocs {
		res.GSSGrants += g.Scheduled
	}
	res.PerCore = append(res.PerCore, r.coreStats...)
	res.Fairness = jain(r.coreStats)
	res.Obs = r.buildReport()
	if r.chk != nil {
		r.finalChecks(res.Obs)
	}
	return res
}

// buildReport assembles the observability report from the counters the
// substrates maintained during the run.
func (r *Runner) buildReport() *obs.Report {
	cfg := r.cfg
	sched := ""
	if cfg.Scheduler != memctrl.SchedDefault {
		sched = cfg.Scheduler.String()
	}
	rep := &obs.Report{
		SchemaVersion: obs.Schema,
		Design:        cfg.Design.String(), App: cfg.App.Name, Gen: int(cfg.Gen),
		ClockMHz: cfg.ClockMHz, Cycles: r.kern.Now(), Warmup: max(cfg.Warmup, 0), Seed: cfg.Seed,
		Scheduler:   sched,
		Generated:   r.met.Generated,
		Completed:   r.met.Completed,
		Stalled:     r.met.Stalled,
		Utilization: r.utilization(r.kern.Now()),
		Latency: obs.Latencies{
			All:      r.met.All.Summarize(),
			Demand:   r.met.Demand.Summarize(),
			Priority: r.met.Priority.Summarize(),
			Best:     r.met.Best.Summarize(),
			Reads:    r.met.Reads.Summarize(),
			Writes:   r.met.Writes.Summarize(),
			Source:   r.met.SourceLatency.Summarize(),
		},
		Network: obs.Network{
			Request:  meshStats(r.reqMesh, r.kern.Now()),
			Response: meshStats(r.respMesh, r.kern.Now()),
		},
		SampleEvery: cfg.SampleEvery,
		Samples:     r.samples,
	}
	for i, c := range r.cores {
		rep.NIs = append(rep.NIs, obs.NI{
			Core:          c.spec.Name,
			QueueFlitsHWM: c.inj.QueueFlitsHWM(),
			StallCycles:   r.stalls[i],
			SinkReadyHWM:  c.sink.ReadyHWM(),
		})
	}
	r.buildMemoryReport(rep)
	if cfg.WorkloadStats {
		r.buildWorkloadReport(rep)
	}
	return rep
}

// buildWorkloadReport fills the per-stream production breakdown from the
// generators' own counters, in core then stream order. Replay-mode runs
// (trace sources, not synthetic generators) contribute nothing.
func (r *Runner) buildWorkloadReport(rep *obs.Report) {
	for _, c := range r.cores {
		for _, src := range c.gens {
			g, ok := src.(*traffic.Gen)
			if !ok {
				continue
			}
			w := obs.StreamWorkload{
				Core: c.spec.Name, Stream: g.Spec.Name,
				Produced: g.Produced, Reads: g.Reads, Writes: g.Writes,
				BlockedCycles: g.Blocked,
			}
			menu, counts := g.BeatHistogram()
			for i, b := range menu {
				w.Beats = append(w.Beats, obs.BeatBin{Beats: b, Count: counts[i]})
			}
			rep.Workload = append(rep.Workload, w)
		}
	}
}

// buildMemoryReport fills the memory-subsystem section. The flat fields
// aggregate across channels — byte-identical to the single-SDRAM schema
// at Channels=1 — and multi-channel runs additionally carry the
// per-channel detail plus the load-imbalance factor.
func (r *Runner) buildMemoryReport(rep *obs.Report) {
	now := r.kern.Now()
	banks := make([]obs.BankStat, r.timing.Banks)
	for i := range banks {
		banks[i].Bank = i
	}
	var stream *obs.StreamQuality
	for ch := range r.devs {
		if h := r.memSinks[ch].ReadyHWM(); h > rep.Memory.SinkReadyHWM {
			rep.Memory.SinkReadyHWM = h
		}
		for i, b := range r.devs[ch].BankCounters() {
			banks[i].Activates += b.Activates
			banks[i].Reads += b.Reads
			banks[i].Writes += b.Writes
			banks[i].RowHits += b.RowHits
			banks[i].Precharges += b.Precharges
			banks[i].AutoPre += b.AutoPre
		}
		if s, ok := r.ctrls[ch].(*memctrl.Simple); ok {
			if stream == nil {
				stream = &obs.StreamQuality{}
			}
			stream.RowHits += s.StreamStats.RowHits
			stream.Interleaves += s.StreamStats.Interleaves
			stream.Conflicts += s.StreamStats.Conflicts
			stream.Contentions += s.StreamStats.Contentions
		}
	}
	rep.Memory.Banks = banks
	rep.Memory.Stream = stream
	r.buildSchedulerReport(rep)
	if len(r.devs) == 1 {
		return
	}
	var busiest, total int64
	for ch := range r.devs {
		cs := obs.ChannelStat{
			Channel:      ch,
			Port:         r.ports[ch].String(),
			Utilization:  r.devs[ch].Utilization(now),
			DataCycles:   r.devs[ch].Stats().DataCycles,
			Splits:       r.chSent[ch],
			Completions:  r.chDone[ch],
			SinkReadyHWM: r.memSinks[ch].ReadyHWM(),
		}
		for i, b := range r.devs[ch].BankCounters() {
			cs.Banks = append(cs.Banks, obs.BankStat{
				Bank: i, Activates: b.Activates, Reads: b.Reads, Writes: b.Writes,
				RowHits: b.RowHits, Precharges: b.Precharges, AutoPre: b.AutoPre,
			})
		}
		if s, ok := r.ctrls[ch].(*memctrl.Simple); ok {
			cs.Stream = &obs.StreamQuality{
				RowHits:     s.StreamStats.RowHits,
				Interleaves: s.StreamStats.Interleaves,
				Conflicts:   s.StreamStats.Conflicts,
				Contentions: s.StreamStats.Contentions,
			}
		}
		if cs.DataCycles > busiest {
			busiest = cs.DataCycles
		}
		total += cs.DataCycles
		rep.Memory.Channels = append(rep.Memory.Channels, cs)
	}
	// Imbalance accompanies every channel breakdown — including the
	// perfectly balanced and the idle (0) cases, which the old omitempty
	// float64 silently dropped from the JSON sidecar.
	var imb float64
	if total > 0 {
		mean := float64(total) / float64(len(r.devs))
		imb = float64(busiest) / mean
	}
	rep.Memory.Imbalance = &imb
}

// buildSchedulerReport fills the per-scheduler decision breakdown,
// aggregated across channels (absent for the default controllers, so
// pre-zoo sidecars stay byte-identical).
func (r *Runner) buildSchedulerReport(rep *obs.Report) {
	if r.cfg.Scheduler == memctrl.SchedDefault {
		return
	}
	st := &obs.SchedulerStat{Name: r.cfg.Scheduler.String()}
	for _, ctrl := range r.ctrls {
		switch c := ctrl.(type) {
		case *memctrl.DPQ:
			st.Grants += c.Stats.Grants
			if c.Stats.MaxBacklog > st.MaxBacklog {
				st.MaxBacklog = c.Stats.MaxBacklog
			}
		case *memctrl.Regulator:
			st.Grants += c.Stats.Grants
			st.Throttled += c.Stats.Throttled
			// Windows opened after the first: a function of the run length
			// alone, whatever cycles the kernel let the controller sleep.
			st.WindowRolls += (r.kern.Now() - 1) / c.Config().Window
		case *memctrl.Staged:
			st.Grants += c.Stats.LightGrants + c.Stats.HeavyGrants
			st.LightGrants += c.Stats.LightGrants
			st.HeavyGrants += c.Stats.HeavyGrants
			st.Reclassifications += c.Stats.Reclassifications
		}
	}
	for _, m := range r.dpqMons {
		st.WCETChecked += m.Checked
	}
	rep.Memory.Scheduler = st
}

// meshStats flattens one mesh's connected output ports, in router-index
// then port order, and totals their activity.
func meshStats(m *noc.Mesh, cycles int64) obs.MeshStats {
	var ms obs.MeshStats
	for _, rt := range m.Routers {
		for p := 0; p < noc.NumPorts; p++ {
			o := rt.Out[p]
			if !o.Connected() {
				continue
			}
			util := 0.0
			if cycles > 0 {
				util = float64(o.BusyCycles) / float64(cycles)
			}
			ms.BusyCycles += o.BusyCycles
			ms.Links = append(ms.Links, obs.LinkStat{
				Router:      rt.Pos.String(),
				Port:        noc.PortName(p),
				BusyCycles:  o.BusyCycles,
				Grants:      o.Grants,
				Utilization: util,
			})
		}
	}
	return ms
}

// jain computes Jain's fairness index over per-core served beats.
func jain(cs []CoreStats) float64 {
	var sum, sumSq float64
	n := 0
	for _, c := range cs {
		x := float64(c.Beats)
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// Run executes a complete simulation for the configuration.
func Run(cfg Config) (Result, error) {
	r, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	r.RunTo(r.cfg.Cycles)
	return r.Finish(), nil
}

// runEpoch is the cancellation granularity of RunContext: the kernel
// advances in epochs of this many cycles, checking the context between
// them. RunUntil chunking is observably idempotent, so epoch runs
// produce bit-identical results to one uninterrupted RunTo.
const runEpoch = 16384

// RunContext executes a complete simulation, honouring cancellation
// between kernel epochs. A cancelled run returns the context's error
// and no result; an uncancelled run is identical to Run.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	r, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	for r.Now() < r.cfg.Cycles {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		next := r.Now() + runEpoch
		if next > r.cfg.Cycles {
			next = r.cfg.Cycles
		}
		r.RunTo(next)
	}
	return r.Finish(), nil
}
