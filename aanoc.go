// Package aanoc is a full reproduction of "Application-Aware NoC Design
// for Efficient SDRAM Access" (Jang & Pan, DAC 2010 / IEEE TCAD 2011): a
// cycle-level model of a multimedia system-on-chip in which many cores
// share DDR SDRAM through a mesh network-on-chip, together with the
// seven NoC/memory design points the paper evaluates — from a
// conventional round-robin NoC with a thread-buffered memory scheduler
// (CONV) through the SDRAM-aware NoC of the authors' earlier work ([4])
// to the paper's contribution: GSS routers (guaranteed SDRAM service,
// token-based hybrid priority flow control) with SAGM (SDRAM access
// granularity matching) and STI (short turn-around interleaving) support.
//
// The package is a facade over the internal substrates:
//
//   - internal/dram — command-accurate DDR1-4/LPDDR3 device model
//     (bank groups, optional subarray-parallel row buffers)
//   - internal/noc — flit-level wormhole mesh with credit flow control
//   - internal/core — the GSS flow-control algorithm and SAGM splitter
//   - internal/router — conventional round-robin / priority-first policies
//   - internal/memctrl — the two memory subsystems
//   - internal/traffic, internal/appmodel — the application models
//   - internal/mapping — address decoding and channel interleaving
//   - internal/system — the full-system simulator
//   - internal/area — Table IV/V gate-count and power models
//
// Typical use:
//
//	res, err := aanoc.Run(aanoc.Config{
//		Model: aanoc.AppBluRay, Generation: 2, Design: aanoc.GSSSAGM,
//		PriorityDemand: true, Cycles: 200_000,
//	})
//
// Beyond the paper's single-SDRAM systems, the scaled application models
// (AppBluRay2, AppDDTV4) expose several memory ports, and Channels
// spreads the memory traffic over that many independent SDRAM channels
// (see ChannelScheme for the interleaving policies).
//
// The table drivers (TableI, TableII, TableIII, Fig8, TableIV, TableV)
// regenerate every quantitative result in the paper's evaluation section.
package aanoc

import (
	"context"
	"errors"
	"fmt"

	"aanoc/internal/appmodel"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
)

// Design identifies one of the seven evaluated NoC/memory design points.
type Design = system.Design

// The seven design points, in the paper's naming.
const (
	Conv          = system.Conv          // CONV
	ConvPFS       = system.ConvPFS       // CONV+PFS
	SDRAMAware    = system.SDRAMAware    // [4]
	SDRAMAwarePFS = system.SDRAMAwarePFS // [4]+PFS
	GSS           = system.GSS           // GSS
	GSSSAGM       = system.GSSSAGM       // GSS+SAGM
	GSSSAGMSTI    = system.GSSSAGMSTI    // GSS+SAGM+STI
)

// Designs lists all seven design points in evaluation order.
func Designs() []Design { return system.Designs() }

// ParseDesign resolves a design from its paper name or a lowercase
// shorthand ("conv", "gss+sagm", ...).
func ParseDesign(s string) (Design, error) { return system.ParseDesign(s) }

// App identifies a benchmark application model by name.
type App string

// The application models: the paper's three SoCs plus the scaled
// multi-channel variants.
const (
	// AppBluRay is the paper's Blu-ray player SoC (3x3 mesh, 8 cores).
	AppBluRay App = "bluray"
	// AppSDTV is the paper's SDTV receiver SoC (3x3 mesh, 8 cores).
	AppSDTV App = "sdtv"
	// AppDDTV is the paper's dual-decode DTV SoC (4x4 mesh, 15 cores).
	AppDDTV App = "ddtv"
	// AppBluRay2 is two Blu-ray pipelines on one 4x4 mesh (14 cores) with
	// two memory ports at opposite corners — sized for Channels=2.
	AppBluRay2 App = "bluray2"
	// AppDDTV4 is four SDTV-class decode quadrants on a 6x6 mesh (32
	// cores) with a memory port in each corner — sized for Channels=4.
	AppDDTV4 App = "ddtv4"
)

// String returns the application name.
func (a App) String() string { return string(a) }

// ParseApp resolves an application from its name. It accepts exactly
// the names AllApps lists; the empty string is not an application (the
// Config zero value defaults it, ParseApp does not).
func ParseApp(s string) (App, error) {
	if !appmodel.Known(s) {
		return "", fmt.Errorf("aanoc: %w %q", ErrUnknownApp, s)
	}
	return App(s), nil
}

// AllApps lists every application model: the paper's three plus the
// scaled multi-channel variants.
func AllApps() []App {
	var out []App
	for _, a := range appmodel.Apps() {
		out = append(out, App(a.Name))
	}
	for _, a := range appmodel.Scaled() {
		out = append(out, App(a.Name))
	}
	return out
}

// ChannelScheme selects how addresses interleave across SDRAM channels
// on a multi-channel run; see the constants.
type ChannelScheme = mapping.ChannelScheme

const (
	// BankThenChannel maps contiguous bank groups to each channel.
	BankThenChannel = mapping.BankThenChannel
	// ChannelThenBankXOR spreads consecutive banks round-robin across
	// channels with a row-XOR fold (channel count must be a power of
	// two).
	ChannelThenBankXOR = mapping.ChannelThenBankXOR
)

// ParseChannelScheme resolves a scheme from its short name ("bank-chan",
// "chan-bank-xor").
func ParseChannelScheme(s string) (ChannelScheme, error) { return mapping.ParseChannelScheme(s) }

// Scheduler selects the memory-scheduler design point; see the
// constants. The zero value is the paper's default controller for the
// chosen Design (MemMax behind CONV/PFS, the stream-aware Simple
// controller elsewhere).
type Scheduler = memctrl.Scheduler

// The memory-scheduler zoo. Every non-default scheduler replaces the
// design's controller on each channel; in checked mode its guarantee is
// verified per request by a runtime monitor (see DESIGN.md, "Memory
// schedulers").
const (
	// SchedulerDefault is the design's own controller — byte-identical
	// behaviour to configs that predate the zoo.
	SchedulerDefault = memctrl.SchedDefault
	// SchedulerDPQ is the dynamic-priority-queue arbiter (after Shah et
	// al.) with an analytic per-request worst-case completion bound
	// computed from the DDR timing parameters.
	SchedulerDPQ = memctrl.SchedDPQ
	// SchedulerRegulated is the per-bank bandwidth regulator (after
	// Sullivan et al.): each (core, bank) pair holds a beat budget per
	// fixed window.
	SchedulerRegulated = memctrl.SchedRegulated
	// SchedulerStaged is the staged heterogeneous scheduler (SMS-style):
	// requestors classify as light or heavy by outstanding-request
	// intensity, and light traffic is served first.
	SchedulerStaged = memctrl.SchedStaged
)

// ParseScheduler resolves a scheduler from its name. It accepts the
// names Schedulers lists ("default" among them) plus "" for the zero
// value, the spelling of a wire field left out.
func ParseScheduler(s string) (Scheduler, error) {
	if s == "" {
		return SchedulerDefault, nil
	}
	sc, err := memctrl.ParseScheduler(s)
	if err != nil {
		return SchedulerDefault, fmt.Errorf("aanoc: %w %q", ErrUnknownScheduler, s)
	}
	return sc, nil
}

// Schedulers lists every scheduler, the default first.
func Schedulers() []Scheduler { return memctrl.Schedulers() }

// Sentinel errors Config.Validate wraps; test with errors.Is. The field
// sentinels are internal/system's own values (internal/scenario exports
// the same ones), so an error matches under any of the three spellings.
var (
	// ErrUnknownApp reports an application name AllApps does not list.
	ErrUnknownApp = errors.New("unknown application")
	// ErrBadGeneration reports a DDR generation outside 1-5.
	ErrBadGeneration = system.ErrBadGeneration
	// ErrBadChannels reports a channel count the application model's
	// memory ports (or the interleaving scheme) cannot support.
	ErrBadChannels = system.ErrBadChannels
	// ErrUnknownScheduler reports a scheduler name Schedulers does not
	// list.
	ErrUnknownScheduler = system.ErrUnknownScheduler
	// ErrBadSampleEvery reports a negative observability sampling period.
	ErrBadSampleEvery = system.ErrBadSampleEvery
	// ErrBadSpec reports a scenario spec that cannot run — malformed
	// JSON, an invalid platform/workload description, Config.Spec
	// combined with Model/App — and any Config value the sentinels above
	// do not name: a clock that is no speed grade of the generation, an
	// unknown design, a negative length, a size out of range.
	ErrBadSpec = errors.New("invalid scenario spec")
)

// Spec is a declarative workload/platform scenario: mesh dimensions,
// memory ports, cores with their request streams, and optional run
// parameters. Load one with LoadSpec/ParseSpec, set it on Config.Spec,
// or generate one with the aanoc gen tool. See internal/scenario for
// the schema and DESIGN.md "Scenario platform" for the contract.
type Spec = scenario.Spec

// SpecRun is a spec's run-parameter block: the spec's embedded defaults
// and the shape CLI/facade overrides merge onto them.
type SpecRun = scenario.Run

// ParseSpec decodes and validates a scenario spec from JSON. Errors
// wrap ErrBadSpec (malformed input or an impossible scenario) or the
// field sentinels (ErrBadGeneration, ErrBadChannels, ErrUnknownScheduler,
// ErrBadSampleEvery) for errors.Is dispatch.
func ParseSpec(data []byte) (*Spec, error) {
	s, err := scenario.Parse(data)
	return s, specErr(err)
}

// LoadSpec reads and validates a scenario spec file.
func LoadSpec(path string) (*Spec, error) {
	s, err := scenario.Load(path)
	return s, specErr(err)
}

// specErr marks the errors no field sentinel names — malformed input, an
// impossible configuration, an unknown scheme name — as ErrBadSpec; the
// field sentinels are the facade's own values and pass through.
func specErr(err error) error {
	if errors.Is(err, scenario.ErrParse) || errors.Is(err, scenario.ErrSpec) || errors.Is(err, scenario.ErrBadScheme) {
		return fmt.Errorf("aanoc: %w: %w", ErrBadSpec, err)
	}
	return err
}

// Config selects one simulation run.
//
// The zero value is runnable: it simulates the Blu-ray application on
// DDR2 at the paper's clock under the CONV design for 200,000 cycles
// with one memory channel and the fixed default seed.
type Config struct {
	// Spec, when set, supplies the platform and workload from a
	// declarative scenario instead of a builtin application model; its
	// embedded run block (if any) provides defaults the explicit Config
	// fields override, field by field. Mutually exclusive with Model
	// (Validate wraps ErrBadSpec otherwise).
	Spec *Spec
	// Model is the application model. Empty defaults to AppBluRay —
	// explicitly: the zero Config must be runnable, and the Blu-ray SoC
	// is the paper's lead evaluation platform. Unknown names are
	// rejected by Validate (wrapping ErrUnknownApp) before anything
	// runs.
	Model App
	// Generation is the DDR generation, 1-5 (0 defaults to 2, the
	// paper's primary evaluation generation): 1-3 are the paper's DDR
	// I/II/III, 4 is DDR4 (bank groups, long/short tCCD/tRRD pairs), 5
	// is LPDDR3 (mobile timing, wide tFAW windows).
	Generation int
	// ClockMHz is the memory clock; 0 selects the application's paper
	// clock for the generation (Table I rows).
	ClockMHz int
	Design   Design
	// Channels is the number of independent SDRAM channels (0 or 1 =
	// the paper's single SDRAM). Each channel is its own controller and
	// device behind its own mesh ejection port, so the count must not
	// exceed the application model's memory ports: 1 for the paper
	// apps, 2 for AppBluRay2, 4 for AppDDTV4.
	Channels int
	// ChannelScheme is the multi-channel interleaving policy (default
	// BankThenChannel); irrelevant single-channel.
	ChannelScheme ChannelScheme
	// Scheduler replaces the design's memory controller with a zoo
	// member on every channel (default: the design's own controller).
	// Unknown names are rejected by Validate (wrapping
	// ErrUnknownScheduler).
	Scheduler Scheduler
	// PCT is the priority control token of the GSS hybrid, 1-6 (default
	// 3); Validate rejects anything else (wrapping ErrBadSpec).
	PCT int
	// GSSRouters is the Fig. 8 knob: 0 = all routers run the GSS engine,
	// -1 = none, k>0 = the k routers nearest the memory; Validate
	// rejects anything below -1 (wrapping ErrBadSpec).
	GSSRouters int
	// PriorityDemand serves CPU demand requests as priority packets
	// (Table II); off reproduces Table I.
	PriorityDemand bool
	// VirtualChannels selects the router buffer organisation: 1 (default)
	// is the paper's wormhole implementation, 2 adds a priority virtual
	// channel (the alternative blocking remedy the paper mentions);
	// Validate rejects anything else (wrapping ErrBadSpec).
	VirtualChannels int
	// AdaptiveRouting replaces XY routing with the west-first adaptive
	// turn model in both meshes (the paper's adaptive-router variant).
	AdaptiveRouting bool
	// Cycles is the simulated length in memory clock cycles
	// (default 200,000; the paper runs 1,000,000).
	Cycles int64
	// Warmup is the cycle latency sampling starts after (0 defaults to
	// Cycles/10; -1 samples from cycle 0).
	Warmup int64
	Seed   uint64
	// SampleEvery, when positive, collects an observability time-series
	// sample every SampleEvery cycles into Result.Obs.
	SampleEvery int64
	// Subarrays enables MASA-style subarray-level parallelism: this many
	// independent row buffers per bank (rows map to buffers by row mod
	// Subarrays), so same-bank accesses to different subarrays avoid the
	// precharge/activate round trip. 0 or 1 is the classic one-buffer
	// bank — byte-identical to configs predating the knob.
	Subarrays int
	// Checked arms the runtime invariant layer (DRAM protocol monitor,
	// NoC conservation audits, end-of-run accounting); violations
	// accumulate into Result.Obs.Violations. Checked runs simulate
	// identically to unchecked runs.
	Checked bool
}

// Result carries one run's measurements; see the field documentation in
// internal/system.
type Result = system.Result

// model resolves the application name, defaulting the empty Model.
func (c Config) model() string {
	if c.Model != "" {
		return string(c.Model)
	}
	return string(AppBluRay)
}

// Validate reports whether the configuration can run, without running
// it: it returns nil exactly when Run would not reject the configuration,
// and otherwise the error Run would return. Errors wrap the package
// sentinels (ErrUnknownApp, ErrBadGeneration, ErrBadChannels,
// ErrUnknownScheduler, ErrBadSampleEvery, ErrBadSpec) for errors.Is
// dispatch.
func (c Config) Validate() error {
	_, err := c.resolve(appmodel.ByName)
	return err
}

// resolve resolves the public config into the system configuration,
// looking a named model up with byName: appmodel.ByName for a clone of
// its own, or Sweep's one clone per name. The facade owns only the Model/Spec exclusivity and
// the application lookup; names, rules and defaults are
// scenario.Resolve's single pass (system.Config.Validate and Resolved)
// — the path the command line uses — over the run block and the knobs a
// run block has no field for.
func (c Config) resolve(byName func(string) (appmodel.App, error)) (system.Config, error) {
	over := scenario.Run{
		Generation: c.Generation, ClockMHz: c.ClockMHz,
		Channels: c.Channels, PriorityDemand: c.PriorityDemand,
		Cycles: c.Cycles, Warmup: c.Warmup, Seed: c.Seed,
		SampleEvery: c.SampleEvery, Subarrays: c.Subarrays,
	}
	if c.ChannelScheme != BankThenChannel {
		over.Scheme = c.ChannelScheme.String()
	}
	if c.Scheduler != SchedulerDefault {
		over.Scheduler = c.Scheduler.String()
	}
	knobs := system.Config{
		Design: c.Design, PCT: c.PCT, GSSRouters: c.GSSRouters,
		VirtualChannels: c.VirtualChannels, AdaptiveRouting: c.AdaptiveRouting,
		Checked: c.Checked,
	}
	var app appmodel.App
	var err error
	if c.Spec != nil {
		if c.Model != "" {
			return system.Config{}, fmt.Errorf("aanoc: %w: Config.Spec is mutually exclusive with Model", ErrBadSpec)
		}
		app = c.Spec.App
		if c.Spec.Run != nil {
			over = over.Merge(*c.Spec.Run)
		}
	} else if app, err = byName(c.model()); err != nil {
		return system.Config{}, fmt.Errorf("aanoc: %w %q", ErrUnknownApp, c.model())
	}
	cfg, err := scenario.Resolve(app, over, knobs)
	return cfg, specErr(err)
}

// Run executes one simulation and returns the paper's metrics. It is
// RunContext without cancellation.
func Run(c Config) (Result, error) {
	return RunContext(context.Background(), c)
}

// RunContext executes one simulation, honouring cancellation between
// kernel epochs: a cancelled context abandons the run within one epoch
// (16,384 cycles) and returns the context's error. An uncancelled run
// is identical to Run.
func RunContext(ctx context.Context, c Config) (Result, error) {
	cfg, err := c.resolve(appmodel.ByName)
	if err != nil {
		return Result{}, err
	}
	return system.RunContext(ctx, cfg)
}
