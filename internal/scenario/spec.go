// Package scenario defines the declarative workload/platform spec: a
// JSON description of a mesh, its memory ports, its cores and their
// request streams, plus optional run parameters — everything an
// application model hard-codes, as data. Specs are the repository's
// "as many scenarios as you can imagine" axis: every CLI loads one with
// -spec, the facade embeds one in Config.Spec, and the seeded generator
// (Generate) mass-produces valid ones from tunable distributions.
//
// The package owns names and the spec shape: Resolve parses a Run
// block's scheme and scheduler names, maps it onto a system.Config and
// hands that to system.Config.Validate — the one rule list, whose
// sentinels this package exports under its own names. Parse never panics
// on malformed input — it returns errors wrapping ErrParse (not JSON) or
// ErrSpec (valid JSON, invalid scenario), the contract the FuzzSpecParse
// target enforces.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/system"
	"aanoc/internal/traffic"
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

// Coord is a mesh coordinate.
type Coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// Mesh is the platform's mesh dimensions.
type Mesh struct {
	Width  int `json:"width"`
	Height int `json:"height"`
}

// Clocks lists the memory clock per DDR generation, in MHz. Every clock
// must be one of the generation's predefined speed grades
// (dram.Speeds); the classic three must be set so generation sweeps
// (the table drivers) work on any spec. The DDR4 and LPDDR3 clocks are
// optional: a run on those generations defaults to the fastest standard
// grade when the spec carries none, so every pre-existing spec keeps
// parsing, hashing and running byte-identically.
type Clocks struct {
	DDR1   int `json:"ddr1"`
	DDR2   int `json:"ddr2"`
	DDR3   int `json:"ddr3"`
	DDR4   int `json:"ddr4,omitempty"`
	LPDDR3 int `json:"lpddr3,omitempty"`
}

// StreamSpec is the declarative form of one request stream — the same
// fields as traffic.Stream with the enums spelled out as strings.
type StreamSpec struct {
	Name string `json:"name"`
	// Class is the traffic class: "demand", "prefetch", "media" or
	// "peripheral".
	Class string `json:"class"`
	// ReadFrac is the probability a request is a read.
	ReadFrac float64 `json:"readFrac"`
	// Beats lists the burst sizes (in data beats) the stream draws from
	// uniformly; repeat an entry to weight it.
	Beats []int `json:"beats"`
	// LoadFrac is the offered load as a fraction of the DRAM data-bus
	// bandwidth (open-loop streams only).
	LoadFrac float64 `json:"loadFrac,omitempty"`
	// ClosedLoop streams bound their outstanding requests and think for
	// ThinkTime cycles after each completion.
	ClosedLoop     bool  `json:"closedLoop,omitempty"`
	ThinkTime      int64 `json:"thinkTime,omitempty"`
	MaxOutstanding int   `json:"maxOutstanding,omitempty"`
	// Pattern is the address walk: "streaming" (default), "random" or
	// "strided".
	Pattern string `json:"pattern,omitempty"`
	// BankOffset rotates the stream's bank walk; RowBase/RowRange bound
	// its private row region.
	BankOffset int `json:"bankOffset,omitempty"`
	RowBase    int `json:"rowBase,omitempty"`
	RowRange   int `json:"rowRange"`
}

// CoreSpec is one IP block: a mesh position and its request streams.
type CoreSpec struct {
	Name    string       `json:"name"`
	At      Coord        `json:"at"`
	Streams []StreamSpec `json:"streams"`
}

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

// Spec is one complete scenario: the platform, the workload, and
// (optionally) how to run it.
type Spec struct {
	Name string `json:"name"`
	Mesh Mesh   `json:"mesh"`
	// MemPorts lists the mesh ejection ports of the memory subsystem's
	// SDRAM channels, in channel order; MemPorts[0] is the canonical
	// single-channel port.
	MemPorts []Coord    `json:"memPorts"`
	Clocks   Clocks     `json:"clocks"`
	Cores    []CoreSpec `json:"cores"`
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

// Validate checks the whole scenario: the platform and workload (via the
// application-model conversion) and, when present, the embedded run
// block (via Resolve, so a spec that validates here is exactly a spec
// every CLI and the facade will accept).
func (s *Spec) Validate() error {
	app, err := s.App()
	if err != nil {
		return err
	}
	for gen := dram.DDR1; gen <= dram.DDR3; gen++ {
		clk := app.Clocks[gen]
		if clk == 0 {
			return fmt.Errorf("scenario: %w: %s missing clock for DDR%d", ErrSpec, s.Name, gen)
		}
		if _, err := dram.Speed(gen, clk); err != nil {
			return fmt.Errorf("scenario: %w: %s DDR%d clock %d: %v", ErrSpec, s.Name, gen, clk, err)
		}
	}
	for _, gen := range []dram.Generation{dram.DDR4, dram.LPDDR3} {
		clk := app.Clocks[gen]
		if clk == 0 {
			continue // optional: the run layer defaults to the fastest grade
		}
		if _, err := dram.Speed(gen, clk); err != nil {
			return fmt.Errorf("scenario: %w: %s %s clock %d: %v", ErrSpec, s.Name, gen, clk, err)
		}
	}
	run := Run{}
	if s.Run != nil {
		run = *s.Run
	}
	if _, err := Resolve(app, run); err != nil {
		return err
	}
	return nil
}

// App converts the spec into the application model the system simulator
// runs. A single memory port folds to the nil-MemPorts form, so a spec
// written from a builtin app (FromApp) converts back to a deeply-equal
// model and runs byte-identically.
func (s *Spec) App() (appmodel.App, error) {
	if s.Name == "" {
		return appmodel.App{}, fmt.Errorf("scenario: %w: spec has no name", ErrSpec)
	}
	if s.Mesh.Width < 1 || s.Mesh.Height < 1 {
		return appmodel.App{}, fmt.Errorf("scenario: %w: %s mesh %dx%d", ErrSpec, s.Name, s.Mesh.Width, s.Mesh.Height)
	}
	if len(s.MemPorts) == 0 {
		return appmodel.App{}, fmt.Errorf("scenario: %w: %s has no memory ports", ErrSpec, s.Name)
	}
	app := appmodel.App{
		Name:   s.Name,
		Width:  s.Mesh.Width,
		Height: s.Mesh.Height,
		MemAt:  noc.Coord{X: s.MemPorts[0].X, Y: s.MemPorts[0].Y},
		Clocks: map[dram.Generation]int{
			dram.DDR1: s.Clocks.DDR1,
			dram.DDR2: s.Clocks.DDR2,
			dram.DDR3: s.Clocks.DDR3,
		},
	}
	// The optional generations enter the clock map only when set, so a
	// spec round-tripped from a DDR1-3 model stays deeply equal to it.
	if s.Clocks.DDR4 != 0 {
		app.Clocks[dram.DDR4] = s.Clocks.DDR4
	}
	if s.Clocks.LPDDR3 != 0 {
		app.Clocks[dram.LPDDR3] = s.Clocks.LPDDR3
	}
	if len(s.MemPorts) > 1 {
		for _, p := range s.MemPorts {
			app.MemPorts = append(app.MemPorts, noc.Coord{X: p.X, Y: p.Y})
		}
	}
	for _, c := range s.Cores {
		core := appmodel.Core{Name: c.Name, Pos: noc.Coord{X: c.At.X, Y: c.At.Y}}
		if core.Name == "" {
			return appmodel.App{}, fmt.Errorf("scenario: %w: %s has an unnamed core", ErrSpec, s.Name)
		}
		if len(c.Streams) == 0 {
			return appmodel.App{}, fmt.Errorf("scenario: %w: %s core %s has no streams", ErrSpec, s.Name, c.Name)
		}
		for _, st := range c.Streams {
			class, err := parseClass(st.Class)
			if err != nil {
				return appmodel.App{}, fmt.Errorf("scenario: %w: %s core %s stream %s: %v", ErrSpec, s.Name, c.Name, st.Name, err)
			}
			pat, err := parsePattern(st.Pattern)
			if err != nil {
				return appmodel.App{}, fmt.Errorf("scenario: %w: %s core %s stream %s: %v", ErrSpec, s.Name, c.Name, st.Name, err)
			}
			core.Streams = append(core.Streams, traffic.Stream{
				Name: st.Name, Class: class,
				ReadFrac: st.ReadFrac, Beats: st.Beats, LoadFrac: st.LoadFrac,
				ClosedLoop: st.ClosedLoop, ThinkTime: st.ThinkTime,
				MaxOutstanding: st.MaxOutstanding,
				Pattern:        pat, BankOffset: st.BankOffset,
				RowBase: st.RowBase, RowRange: st.RowRange,
			})
		}
		app.Cores = append(app.Cores, core)
	}
	if err := app.Validate(); err != nil {
		return appmodel.App{}, fmt.Errorf("scenario: %w: %v", ErrSpec, err)
	}
	return app, nil
}

// FromApp expresses an application model as a spec — the inverse of App,
// exact down to the single-port fold, so FromApp(a).App() is deeply
// equal to a for every valid model.
func FromApp(a appmodel.App) *Spec {
	s := &Spec{
		Name: a.Name,
		Mesh: Mesh{Width: a.Width, Height: a.Height},
		Clocks: Clocks{
			DDR1:   a.Clocks[dram.DDR1],
			DDR2:   a.Clocks[dram.DDR2],
			DDR3:   a.Clocks[dram.DDR3],
			DDR4:   a.Clocks[dram.DDR4],
			LPDDR3: a.Clocks[dram.LPDDR3],
		},
	}
	for _, p := range a.Ports() {
		s.MemPorts = append(s.MemPorts, Coord{X: p.X, Y: p.Y})
	}
	for _, c := range a.Cores {
		cs := CoreSpec{Name: c.Name, At: Coord{X: c.Pos.X, Y: c.Pos.Y}}
		for _, st := range c.Streams {
			cs.Streams = append(cs.Streams, StreamSpec{
				Name: st.Name, Class: st.Class.String(),
				ReadFrac: st.ReadFrac, Beats: st.Beats, LoadFrac: st.LoadFrac,
				ClosedLoop: st.ClosedLoop, ThinkTime: st.ThinkTime,
				MaxOutstanding: st.MaxOutstanding,
				Pattern:        patternName(st.Pattern), BankOffset: st.BankOffset,
				RowBase: st.RowBase, RowRange: st.RowRange,
			})
		}
		s.Cores = append(s.Cores, cs)
	}
	return s
}

// Hash returns the canonical content hash of the spec: sha256 over its
// JSON marshalling (deterministic — struct field order, no maps). Two
// specs with equal content hash alike regardless of how they were
// loaded or built; the sweep fingerprint keys on it.
func (s *Spec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("scenario: hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

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
	if r.Generation == 0 {
		r.Generation = def.Generation
	}
	if r.ClockMHz == 0 {
		r.ClockMHz = def.ClockMHz
	}
	if r.Channels == 0 {
		r.Channels = def.Channels
	}
	if r.Scheme == "" {
		r.Scheme = def.Scheme
	}
	if r.Scheduler == "" {
		r.Scheduler = def.Scheduler
	}
	r.PriorityDemand = r.PriorityDemand || def.PriorityDemand
	if r.Cycles == 0 {
		r.Cycles = def.Cycles
	}
	if r.Warmup == 0 {
		r.Warmup = def.Warmup
	}
	if r.Seed == 0 {
		r.Seed = def.Seed
	}
	if r.SampleEvery == 0 {
		r.SampleEvery = def.SampleEvery
	}
	if r.Subarrays == 0 {
		r.Subarrays = def.Subarrays
	}
	return r
}

// Resolve maps (application model, run parameters) onto a system
// configuration — parsing the scheme and scheduler names (ErrBadScheme,
// ErrUnknownScheduler) — and returns it validated and resolved, its
// generation and every other default filled. base, when given, supplies
// the fields a Run has no name for (design, PCT, virtual channels, ...),
// so they pass through the same single Validate call.
func Resolve(app appmodel.App, r Run, base ...system.Config) (system.Config, error) {
	var cfg system.Config
	if len(base) > 0 {
		cfg = base[0]
	}
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
// system configuration, with the spec's content hash attached so the
// sweep fingerprint distinguishes spec-driven runs by workload content.
func (s *Spec) SystemConfig(over Run) (system.Config, error) {
	app, err := s.App()
	if err != nil {
		return system.Config{}, err
	}
	base := Run{}
	if s.Run != nil {
		base = *s.Run
	}
	return Resolve(app, over.Merge(base), system.Config{SpecHash: s.Hash()})
}

// parseClass resolves a traffic-class name.
func parseClass(s string) (noc.Class, error) {
	for c := noc.ClassDemand; c <= noc.ClassPeripheral; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (want demand, prefetch, media or peripheral)", s)
}

// parsePattern resolves an address-walk name; empty selects streaming.
func parsePattern(s string) (traffic.Pattern, error) {
	switch s {
	case "", "streaming":
		return traffic.Streaming, nil
	case "random":
		return traffic.Random, nil
	case "strided":
		return traffic.Strided, nil
	}
	return 0, fmt.Errorf("unknown pattern %q (want streaming, random or strided)", s)
}

// patternName inverts parsePattern.
func patternName(p traffic.Pattern) string {
	switch p {
	case traffic.Random:
		return "random"
	case traffic.Strided:
		return "strided"
	default:
		return "streaming"
	}
}
