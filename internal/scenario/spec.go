// Package scenario defines the declarative workload/platform spec: an
// application model (appmodel.App — a mesh, its memory ports, its cores
// and their request streams) as JSON, plus optional run parameters.
// Specs are the repository's "as many scenarios as you can imagine"
// axis: every CLI loads one with -spec, the facade embeds one in
// Config.Spec, and the seeded generator (Generate) mass-produces valid
// ones from tunable distributions.
//
// The platform half of the file format is appmodel's, traffic's and
// noc's struct tags and name tables; this package owns the Run block:
// Resolve parses its scheme and scheduler names, maps it onto a
// system.Config and hands that to system.Config.Validate — the one rule
// list, whose sentinels this package exports under its own names. Parse
// never panics on malformed input — it returns errors wrapping ErrParse
// (not JSON) or ErrSpec (valid JSON, invalid scenario), the contract the
// FuzzSpecParse target enforces.
package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/system"
)

// Sentinel errors; test with errors.Is. Parse wraps exactly one of
// ErrParse or ErrSpec. Every other name is system's sentinel itself, by
// assignment, so an error matches under either spelling and carries the
// sentinel's text once.
var (
	// ErrParse reports input that is not the spec's JSON shape at all:
	// a syntax error, an unknown field, a type mismatch, trailing data.
	ErrParse = errors.New("malformed scenario spec")
	// ErrSpec reports well-formed JSON describing an impossible scenario
	// (overlapping cores, empty stream menus, bad clock grades, ...).
	ErrSpec             = system.ErrInvalid
	ErrBadGeneration    = system.ErrBadGeneration
	ErrBadChannels      = system.ErrBadChannels
	ErrBadScheme        = system.ErrBadScheme
	ErrUnknownScheduler = system.ErrUnknownScheduler
	ErrBadSampleEvery   = system.ErrBadSampleEvery
)

// Run is a spec's optional run-parameter block, and the override shape
// the CLIs and the facade merge on top of it. Zero fields mean "use the
// default" (for an embedded block) or "keep the spec's value" (for an
// override), exactly like the zero fields of system.Config.
type Run struct {
	// Generation is the DDR generation 1-5 — DDR1/2/3, 4 for DDR4,
	// 5 for LPDDR3 (0 defaults to 2).
	Generation int `json:"generation,omitempty"`
	// ClockMHz overrides the spec's clock for the generation.
	ClockMHz int `json:"clockMHz,omitempty"`
	// Channels is the SDRAM channel count (0 defaults to 1).
	Channels int `json:"channels,omitempty"`
	// Scheme is the channel-interleaving policy: "bank-chan" (default)
	// or "chan-bank-xor".
	Scheme string `json:"scheme,omitempty"`
	// Scheduler is the memory-scheduler name ("default", "dpq",
	// "regulated", "staged"; empty keeps the design's controller).
	Scheduler string `json:"scheduler,omitempty"`
	// PriorityDemand serves CPU demand requests as priority packets.
	PriorityDemand bool `json:"priorityDemand,omitempty"`
	// Cycles is the simulated length (0 defaults to 200,000).
	Cycles int64 `json:"cycles,omitempty"`
	// Warmup is the cycle latency sampling starts after (0 defaults to
	// Cycles/10; -1 samples from cycle 0).
	Warmup int64 `json:"warmup,omitempty"`
	// Seed seeds the deterministic RNG (0 selects the fixed default).
	Seed uint64 `json:"seed,omitempty"`
	// SampleEvery enables time-series sampling at this interval.
	SampleEvery int64 `json:"sampleEvery,omitempty"`
	// Subarrays enables MASA-style subarray-level parallelism: this many
	// independent row buffers per bank (0 or 1: the classic bank).
	Subarrays int `json:"subarrays,omitempty"`
}

// Spec is one complete scenario: the application model — the platform
// and its workload, whose json tags are the file format — and
// (optionally) how to run it.
type Spec struct {
	appmodel.App
	// Run carries the spec's own run parameters; CLI flags and facade
	// fields override it field by field.
	Run *Run `json:"run,omitempty"`
}

// Parse decodes and validates one spec. Input that is not the spec's
// JSON shape (syntax errors, unknown fields, trailing data) returns an
// error wrapping ErrParse; well-formed JSON describing an invalid
// scenario wraps ErrSpec or a field sentinel. Parse never panics.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		// encoding/json hands an UnmarshalText error back unwrapped: a
		// class or pattern name the model does not know is well-formed
		// JSON describing an invalid scenario.
		if errors.Is(err, strconv.ErrSyntax) {
			return nil, fmt.Errorf("scenario: %w: %v", ErrSpec, err)
		}
		return nil, fmt.Errorf("scenario: %w: %v", ErrParse, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: %w: trailing data after spec", ErrParse)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the whole scenario. The platform's structure and the
// run block go through Resolve — appmodel.App.Validate and
// system.Config.Validate, so a spec that validates here is exactly a
// spec every CLI and the facade will accept. The one spec-only rule
// follows: every clock is one of its generation's speed grades
// (dram.Speeds), and the classic three are set so generation sweeps (the
// table drivers) work on any spec. The DDR4 and LPDDR3 clocks are
// optional; a run on those generations defaults to the fastest grade.
func (s *Spec) Validate() error {
	run := Run{}
	if s.Run != nil {
		run = *s.Run
	}
	if _, err := Resolve(s.App, run, system.Config{}); err != nil {
		return err
	}
	for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
		clk := s.Clocks.At(gen)
		if clk == 0 {
			if gen <= dram.DDR3 {
				return fmt.Errorf("scenario: %w: %s missing clock for %s", ErrSpec, s.Name, gen)
			}
			continue
		}
		if _, err := dram.Speed(gen, clk); err != nil {
			return fmt.Errorf("scenario: %w: %s %s clock %d: %v", ErrSpec, s.Name, gen, clk, err)
		}
	}
	return nil
}

// FromApp wraps an application model as a spec with no run block.
func FromApp(a appmodel.App) *Spec { return &Spec{App: a} }

// WriteJSON serialises the spec, indented, to w — the aanoc gen output
// format, accepted back by Parse.
func (s *Spec) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Merge fills r's zero fields from def: r is the override (CLI flags,
// facade fields), def the spec's embedded run block. PriorityDemand is
// a bool and ORs — an override cannot switch a spec's priority off, the
// same zero-value limitation every optional bool in the repo carries.
func (r Run) Merge(def Run) Run {
	r.Generation = cmp.Or(r.Generation, def.Generation)
	r.ClockMHz = cmp.Or(r.ClockMHz, def.ClockMHz)
	r.Channels = cmp.Or(r.Channels, def.Channels)
	r.Scheme = cmp.Or(r.Scheme, def.Scheme)
	r.Scheduler = cmp.Or(r.Scheduler, def.Scheduler)
	r.PriorityDemand = r.PriorityDemand || def.PriorityDemand
	r.Cycles = cmp.Or(r.Cycles, def.Cycles)
	r.Warmup = cmp.Or(r.Warmup, def.Warmup)
	r.Seed = cmp.Or(r.Seed, def.Seed)
	r.SampleEvery = cmp.Or(r.SampleEvery, def.SampleEvery)
	r.Subarrays = cmp.Or(r.Subarrays, def.Subarrays)
	return r
}

// Resolve maps (application model, run parameters) onto a system
// configuration — parsing the scheme and scheduler names (ErrBadScheme,
// ErrUnknownScheduler) — and returns it validated and resolved, its
// generation and every other default filled. base supplies the fields a
// Run has no name for (design, PCT, virtual channels, ...), so they pass
// through the same single Validate call.
func Resolve(app appmodel.App, r Run, base system.Config) (system.Config, error) {
	cfg := base
	cfg.App = app
	cfg.Gen = dram.Generation(r.Generation)
	cfg.ClockMHz = r.ClockMHz
	cfg.Channels = r.Channels
	cfg.PriorityDemand = r.PriorityDemand
	cfg.Cycles = r.Cycles
	cfg.Warmup = r.Warmup
	cfg.Seed = r.Seed
	cfg.SampleEvery = r.SampleEvery
	cfg.Subarrays = r.Subarrays
	var err error
	if r.Scheme != "" {
		if cfg.Scheme, err = mapping.ParseChannelScheme(r.Scheme); err != nil {
			return system.Config{}, fmt.Errorf("scenario: %w %q", ErrBadScheme, r.Scheme)
		}
	}
	if r.Scheduler != "" {
		if cfg.Scheduler, err = memctrl.ParseScheduler(r.Scheduler); err != nil {
			return system.Config{}, fmt.Errorf("scenario: %w %q", ErrUnknownScheduler, r.Scheduler)
		}
	}
	if err = cfg.Validate(); err != nil {
		return system.Config{}, err
	}
	return cfg.Resolved(), nil
}

// SystemConfig resolves the spec plus an override block into a runnable
// system configuration. The spec's model is in the resolved config, so
// the sweep fingerprint tells spec-driven runs apart by workload content
// and a spec of a builtin model keys with the builtin's runs.
func (s *Spec) SystemConfig(over Run) (system.Config, error) {
	base := Run{}
	if s.Run != nil {
		base = *s.Run
	}
	return Resolve(s.App, over.Merge(base), system.Config{})
}
