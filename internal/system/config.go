package system

import (
	"errors"
	"fmt"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/trace"
)

// Config specifies one simulation run.
type Config struct {
	App      appmodel.App
	Gen      dram.Generation // 0: DDR2
	ClockMHz int             // 0: the application's clock for Gen
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

	// PCT is the hybrid priority control token for GSS designs, 1-6
	// (default 3; [4] and [4]+PFS override it, and a design without the
	// STI filter tree runs 6 as its deepest tier, 5).
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
	// SplitGranularity overrides the SAGM split size in beats (ablation);
	// 0 uses the paper's per-generation value.
	SplitGranularity int
	// Trace, when set, records every generated logical request (capture
	// mode); Replay, when non-empty, replaces the application's synthetic
	// generators with the recorded requests (replay mode) — identical
	// workloads across designs. A capturing config is never cached, so
	// the writer is no part of sweep.Fingerprint's key.
	Trace  *trace.Writer `codec:"-"`
	Replay []trace.Record

	// SampleEvery, when positive, collects an observability time-series
	// sample every SampleEvery cycles into the run report (Result.Obs):
	// windowed data-bus utilization, outstanding logical requests and
	// queue occupancies. Zero disables sampling; the rest of the report
	// is collected either way. Sampling never feeds back into the
	// simulation, so it cannot perturb results.
	SampleEvery int64

	// WorkloadStats includes the per-stream production breakdown
	// (obs.Report.Workload: read/write split, burst-size histogram,
	// blocked cycles) in the run report — the input of the scenario
	// calibration layer. Off by default so default sidecars stay
	// byte-identical; the counters themselves are always maintained.
	WorkloadStats bool

	// Checked enables the internal/check invariant layer: a DRAM protocol
	// conformance monitor on the device's command stream, credit/flit
	// conservation audits over both meshes on every visited cycle, and
	// end-of-run request/token/report accounting. Costs nothing when off
	// (one nil check per step); when on, violations accumulate into
	// Result.Obs.Violations. Checked runs visit the same cycles and
	// produce the same results as unchecked runs — the monitors observe.
	Checked bool
	// Fault arms one deliberately broken device rule on every channel —
	// the mutation knob that lets an end-to-end run prove checked mode
	// turns the breach into violations. Unlike every other field it makes
	// results wrong on purpose, so sweep.Fingerprint refuses to cache a
	// faulted config. Only aanoc sim sets it (-inject-fault).
	Fault dram.Fault
	// NoIdleSkip makes the kernel tick every cycle even when every
	// component sleeps — the reference loop the equivalence gates compare
	// against. Results are identical either way, so sweep.Fingerprint
	// leaves it out. Only aanoc sim sets it (-no-idle-skip).
	NoIdleSkip bool `codec:"-"`

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

// Result carries one run's measurements, all read off its report, Obs,
// by ResultOf: for Runner.Finish and the result store alike.
type Result struct {
	Design   Design
	App      string
	Gen      dram.Generation
	ClockMHz int

	Utilization float64
	LatAll      float64
	LatDemand   float64
	LatPriority float64
	LatBest     float64

	Generated int64
	Completed int64

	Device dram.Stats
	// WasteFrac is the fraction of transferred beats the requester never
	// asked for (access granularity mismatch, Fig. 2).
	WasteFrac float64

	// GSSGrants counts GSS channel allocations; CmdCycles counts
	// command-bus activity — inputs to the Table V power model.
	GSSGrants int64
	CmdCycles int64

	// Fairness is Jain's index over the per-core served beats of
	// Obs.NIs (1 = perfectly proportional service, 1/n = one core
	// monopolises the memory).
	Fairness float64

	// Obs is the run-level observability report: per-link utilization
	// and grants, per-NI backlog high-water marks, stall cycles and
	// service, the per-bank DRAM breakdown and device totals, and (when
	// Config.SampleEvery is set) the time series. Serialized by the CLI
	// JSON sidecars and, in binary, by the result store.
	Obs *obs.Report
}

// Resolved returns the configuration with every defaulted field filled
// in — the exact parameters a run would execute, and the repository's one
// defaults table. Sweep fingerprinting keys on the resolved form so
// distinct spellings of the same run (a zero field versus its default
// written out) share one cache entry.
func (c Config) Resolved() Config {
	if c.Gen == 0 {
		c.Gen = dram.DDR2 // the paper's primary evaluation generation
	}
	if c.ClockMHz == 0 {
		c.ClockMHz = c.App.Clocks.At(c.Gen)
	}
	if c.ClockMHz == 0 {
		// Application models predating a generation (the builtin media
		// platforms carry DDR1-3 clocks only) default to its fastest
		// standard speed grade.
		c.ClockMHz = dram.DefaultClock(c.Gen)
	}
	if c.PCT == 0 {
		c.PCT = defaultPCT
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
	if c.VirtualChannels == 0 {
		c.VirtualChannels = 1
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	return c
}

// defaultPCT is the hybrid priority control token a zero Config.PCT
// resolves to.
const defaultPCT = 3

// The platform's fixed sizes. No store key holds them, so changing one
// changes what every stored run computed: it must bump the store's
// formatVersion.
const (
	bufFlits    = 8  // router input buffer depth, flits per virtual channel
	injectCap   = 64 // NI injection backlog in flits beyond which a core stalls
	memPipeline = 8  // command pipeline depth of the lightweight controllers
)

// Canonical returns the configuration whose simulation equals this one's
// up to the identity fields Result.Design and Obs.Design, and whether it
// differs from c. Without priority traffic (PriorityDemand off and no
// replay) the knobs that act on priority packets alone cannot act: the
// PCT seeds only a priority packet's tokens (core.GSS.OnPacketArrival),
// and priority-first service only reorders priority packets. So CONV+PFS
// runs as CONV, [4]+PFS and GSS as [4], and a valid PCT as the default.
// Fields that fail Validate are left alone, so a config and its canonical
// form fail alike. TestCanonicalRunsEqual holds every rule to fresh runs;
// sweep.Run simulates one run per canonical form and gives each twin
// its own copy through Result.Restamp.
func (c Config) Canonical() (Config, bool) {
	if c.PriorityDemand || len(c.Replay) > 0 {
		return c, false
	}
	canon := c
	switch c.Design {
	case ConvPFS:
		canon.Design = Conv
	case SDRAMAwarePFS, GSS:
		canon.Design = SDRAMAware
	}
	if c.PCT >= 1 && c.PCT <= 6 && c.PCT != defaultPCT {
		canon.PCT = 0
	}
	return canon, canon.Design != c.Design || canon.PCT != c.PCT
}

// Sentinel errors Validate wraps; test with errors.Is. They are declared
// here once: scenario and the aanoc facade export these same values under
// their own names.
var (
	// ErrInvalid reports a configuration that cannot run for a reason no
	// sentinel below names: an inconsistent application model, an unknown
	// design or clock grade, a negative length, a size out of range.
	ErrInvalid = errors.New("invalid configuration")
	// ErrBadGeneration reports a DDR generation outside 1-5.
	ErrBadGeneration = errors.New("invalid DDR generation")
	// ErrBadChannels reports a channel count the application's memory
	// ports (or the interleaving scheme) cannot support.
	ErrBadChannels = errors.New("invalid channel count")
	// ErrBadScheme reports an unknown channel-interleaving scheme.
	ErrBadScheme = errors.New("unknown channel scheme")
	// ErrUnknownScheduler reports an unknown memory scheduler.
	ErrUnknownScheduler = errors.New("unknown scheduler")
	// ErrBadSampleEvery reports a negative observability sampling period.
	ErrBadSampleEvery = errors.New("invalid sampling period")
)

// Validate reports whether the configuration can run: it returns nil
// exactly when New would build it. It is the repository's one rule list —
// every range and cross-field rule, checked on the resolved form so a
// defaulted field and its default written out fare alike. New calls it
// first; scenario.Resolve, and through it the facade, the command line
// and the server, call nothing else. The rules are comparisons: an
// accepted configuration costs App.Validate and no allocation beyond it.
func (c Config) Validate() error {
	c = c.Resolved()
	if err := c.App.Validate(); err != nil {
		return fmt.Errorf("system: %w: %v", ErrInvalid, err)
	}
	if c.Gen < dram.DDR1 || c.Gen > dram.LPDDR3 {
		return fmt.Errorf("system: %w %d (want 1-5)", ErrBadGeneration, int(c.Gen))
	}
	if _, err := dram.Speed(c.Gen, c.ClockMHz); err != nil {
		return fmt.Errorf("system: %w: %v", ErrInvalid, err)
	}
	ports := len(c.App.Ports())
	switch {
	case c.Design < Conv || c.Design > GSSSAGMSTI:
		return fmt.Errorf("system: %w: unknown design %d", ErrInvalid, int(c.Design))
	case c.Channels < 1 || c.Channels > ports:
		return fmt.Errorf("system: %w %d (app %s has %d memory port(s))", ErrBadChannels, c.Channels, c.App.Name, ports)
	case c.Scheme != mapping.BankThenChannel && c.Scheme != mapping.ChannelThenBankXOR:
		return fmt.Errorf("system: %w %d", ErrBadScheme, int(c.Scheme))
	case c.Scheme == mapping.ChannelThenBankXOR && c.Channels&(c.Channels-1) != 0:
		return fmt.Errorf("system: %w %d (%s needs a power of two)", ErrBadChannels, c.Channels, c.Scheme)
	case !c.Scheduler.Valid():
		return fmt.Errorf("system: %w %d", ErrUnknownScheduler, int(c.Scheduler))
	case c.PCT < 1 || c.PCT > 6:
		return fmt.Errorf("system: %w: PCT must be 1..6, got %d", ErrInvalid, c.PCT)
	case c.GSSRouters < -1:
		return fmt.Errorf("system: %w: GSS router count %d (want -1 for none, 0 for all, or a count)", ErrInvalid, c.GSSRouters)
	case c.VirtualChannels < 1 || c.VirtualChannels > 2:
		return fmt.Errorf("system: %w: virtual channels must be 1..2, got %d", ErrInvalid, c.VirtualChannels)
	case c.Cycles < 0:
		return fmt.Errorf("system: %w: negative cycle count %d", ErrInvalid, c.Cycles)
	case c.SampleEvery < 0:
		return fmt.Errorf("system: %w %d", ErrBadSampleEvery, c.SampleEvery)
	case c.Subarrays < 0:
		return fmt.Errorf("system: %w: negative subarray count %d", ErrInvalid, c.Subarrays)
	case c.SplitGranularity < 0:
		return fmt.Errorf("system: %w: negative split granularity %d", ErrInvalid, c.SplitGranularity)
	}
	return nil
}

// ResultOf returns the Result a report records, with rep as its Obs:
// the identity parsed from its names, the device totals folded from its
// banks, the per-core service from its NIs. It fails on a nil report and
// on a design name it cannot parse; the scheduler and channel count stay
// the report's (Obs.Scheduler, Obs.Memory.Channels).
func ResultOf(rep *obs.Report) (Result, error) {
	if rep == nil {
		return Result{}, errors.New("system: the result carries no report")
	}
	d, err := ParseDesign(rep.Design)
	if err != nil {
		return Result{}, err
	}
	mem := &rep.Memory
	dev := dram.Stats{Refreshes: mem.Refreshes, DataCycles: mem.DataCycles, BurstsBL: mem.BurstBeats, UsefulBeats: mem.UsefulBeats}
	for _, b := range mem.Banks {
		dev.Activates += b.Activates
		dev.Reads += b.Reads
		dev.Writes += b.Writes
		dev.Precharges += b.Precharges
		dev.AutoPre += b.AutoPre
	}
	res := Result{
		Design: d, App: rep.App, Gen: dram.Generation(rep.Gen), ClockMHz: rep.ClockMHz,
		Utilization: rep.Utilization, LatAll: rep.Latency.All.Mean, LatDemand: rep.Latency.Demand.Mean,
		LatPriority: rep.Latency.Priority.Mean, LatBest: rep.Latency.Best.Mean,
		Generated: rep.Generated, Completed: rep.Completed, GSSGrants: rep.GSSGrants,
		Device: dev, CmdCycles: dev.Activates + dev.Reads + dev.Writes + dev.Precharges + dev.Refreshes,
		Fairness: jain(rep.NIs), Obs: rep,
	}
	if dev.BurstsBL > 0 {
		res.WasteFrac = float64(dev.BurstsBL-dev.UsefulBeats) / float64(dev.BurstsBL)
	}
	return res, nil
}

// Restamp returns r as the run of design d: a twin's result (see
// Config.Canonical) made the point's own. It renames a fresh copy of
// the report, so the twin's keeps its name, and reads the result from it.
func (r Result) Restamp(d Design) (Result, error) {
	if r.Obs == nil {
		return ResultOf(nil)
	}
	rep := *r.Obs
	rep.Design = d.String()
	return ResultOf(&rep)
}

// jain computes Jain's fairness index over per-core served beats.
func jain(cs []obs.NI) float64 {
	var sum, sumSq float64
	for _, c := range cs {
		x := float64(c.Beats)
		sum += x
		sumSq += x * x
	}
	if len(cs) == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(cs)) * sumSq)
}
