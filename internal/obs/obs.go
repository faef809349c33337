// Package obs defines the run-level observability report: the structured
// per-component counters one simulation run exports next to the paper's
// headline metrics. Where the headline metrics answer "how fast", the
// report answers "why": which links carried the traffic, which network
// interfaces backpressured their generators, which banks took the
// activates and conflicts, and — with sampling enabled — how utilization
// and queue occupancy evolved over the run.
//
// The report is pure data. The system simulator fills it in
// Runner.Finish from counters the substrates (noc, dram, memctrl)
// maintain anyway, so collecting it costs nothing during the run; the
// optional time series is the only part gated behind a configuration
// knob (Config.SampleEvery). Every field is deterministic for a
// (configuration, seed) pair, so reports survive the repository's
// serial-vs-parallel byte-identity checks unchanged.
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"

	"aanoc/internal/stats"
)

// Schema is the current report schema version, carried by every report
// in SchemaVersion and stamped by EncodeJSON. The history:
//
//	1 — the PR-2..PR-9 sidecar (no version field; decoders treat a
//	    missing/zero SchemaVersion as 1)
//	2 — explicit SchemaVersion, canonical EncodeJSON/DecodeJSON pair
//
// Bump it whenever the serialized shape of Report changes in a way a
// reader must know about (a field renamed, a meaning changed — not a
// purely additive omitempty field). The persistent result store
// (internal/store) folds Schema into its on-disk namespace, so a bump
// also retires every stored entry written under the old schema.
const Schema = 2

// Report is one run's observability export. Serialized as JSON by the
// CLI sidecars (aanoc sim -json, aanoc tables -json, ...) and the
// aanoc serve results endpoint, always through EncodeJSON.
type Report struct {
	// SchemaVersion is the report schema the writer produced (Schema at
	// the time of writing); zero marks a legacy pre-versioned sidecar.
	SchemaVersion int `json:"schemaVersion,omitempty"`

	// Run identity: the resolved configuration the counters belong to.
	Design   string `json:"design"`
	App      string `json:"app"`
	Gen      int    `json:"gen"`
	ClockMHz int    `json:"clockMHz"`
	Cycles   int64  `json:"cycles"`
	Warmup   int64  `json:"warmup"`
	Seed     uint64 `json:"seed"`
	// Scheduler names the memory-scheduler override the run used; absent
	// for the default per-design controller, so default sidecars stay
	// byte-identical to the pre-zoo schema.
	Scheduler string `json:"scheduler,omitempty"`

	// Request accounting over the whole run.
	Generated int64 `json:"generated"`
	Completed int64 `json:"completed"`
	// Stalled counts generator cycles lost to injection backpressure: one
	// per core per cycle in which its NI refused new work (backlog at
	// its 64-flit cap), counted at the backpressure decision in coreNI.Tick and,
	// for the cycles a blocked core sleeps through, in Runner.settle.
	Stalled int64 `json:"stalled"`

	// Utilization is the data-bus busy fraction (the paper's headline
	// memory utilization metric).
	Utilization float64 `json:"utilization"`

	Latency Latencies `json:"latency"`
	Network Network   `json:"network"`
	// NIs is the per-core network-interface breakdown, in core order.
	NIs    []NI   `json:"nis"`
	Memory Memory `json:"memory"`

	// Workload is the per-stream production breakdown of a calibration
	// run (system.Config.WorkloadStats), in core then stream order: what
	// each traffic generator actually produced, for the scenario
	// statistical-calibration layer to compare against the declared
	// distributions. Absent by default, so golden sidecars stay
	// byte-identical whether or not the binary knows about it.
	Workload []StreamWorkload `json:"workload,omitempty"`

	// SampleEvery echoes the sampling interval; Samples is the time
	// series, one entry per interval boundary (absent when sampling off).
	SampleEvery int64    `json:"sampleEvery,omitempty"`
	Samples     []Sample `json:"samples,omitempty"`

	// Checked marks a run executed under the internal/check invariant
	// layer (Config.Checked); Violations lists every invariant breach the
	// checkers recorded. A checked run of a healthy simulator carries
	// Checked=true and an empty Violations list. Both fields are absent
	// from unchecked runs, so default JSON sidecars are byte-identical
	// whether or not the binary knows about checked mode.
	Checked    bool        `json:"checked,omitempty"`
	Violations []Violation `json:"violations,omitempty"`
}

// Violation is one invariant breach recorded by the internal/check
// layer: which component broke which rule, at which cycle, with enough
// detail to reproduce. The type lives here (pure data) so the report can
// carry violations without obs depending on the checker implementation.
type Violation struct {
	// Cycle is the simulation cycle the breach was detected at (-1 for
	// end-of-run accounting checks that have no single cycle).
	Cycle int64 `json:"cycle"`
	// Component names the checked subsystem: "dram", "noc/request",
	// "noc/response", "gss", "runner", "obs" ("check" for Dropped).
	Component string `json:"component"`
	// Kind is the invariant that broke: a timing parameter ("tFAW",
	// "tRCD"), a conservation law ("credit-conservation",
	// "flit-conservation", "request-accounting"), or a cross-check name.
	Kind string `json:"kind"`
	// Detail is a human-readable description with the offending values.
	Detail string `json:"detail"`
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s: %s", v.Cycle, v.Component, v.Kind, v.Detail)
}

// ErrViolations marks the error of a checked run or grid that recorded
// invariant violations.
var ErrViolations = errors.New("invariant violations")

// kindDropped is the kind of the entry that ends a violation list whose
// checker stopped recording at its limit (Dropped).
const kindDropped = "violations-dropped"

// Dropped is the entry that ends a violation list past which n more
// violations were counted but not recorded.
func Dropped(n int64) Violation {
	return Violation{Cycle: -1, Component: "check", Kind: kindDropped,
		Detail: fmt.Sprintf("%d more violations counted but not recorded", n)}
}

// TotalViolations is the number of violations a list stands for: its
// entries, with a closing Dropped entry counted as the number it names.
func TotalViolations(vs []Violation) int64 {
	n := int64(len(vs))
	if n > 0 && vs[n-1].Kind == kindDropped {
		// An entry Dropped did not write counts as the one entry it is.
		var dropped int64
		if _, err := fmt.Sscan(vs[n-1].Detail, &dropped); err == nil {
			n += dropped - 1
		}
	}
	return n
}

// SummarizeViolations renders up to max violations, one per line, with a
// trailing count of the rest — the CLIs' stderr rendering.
func SummarizeViolations(vs []Violation, max int) string {
	if len(vs) == 0 {
		return ""
	}
	var b []byte
	n := len(vs)
	if max > 0 && n > max {
		n = max
	}
	for _, v := range vs[:n] {
		b = append(b, v.String()...)
		b = append(b, '\n')
	}
	if n < len(vs) {
		b = append(b, fmt.Sprintf("... and %d more violations\n", TotalViolations(vs)-int64(n))...)
	}
	return string(b)
}

// Latencies digests every latency accumulator of the run. All primary
// classes measure from network entry; Source measures from generation
// (including the NI queue).
type Latencies struct {
	All      stats.Summary `json:"all"`
	Demand   stats.Summary `json:"demand"`
	Priority stats.Summary `json:"priority"`
	Best     stats.Summary `json:"best"`
	Reads    stats.Summary `json:"reads"`
	Writes   stats.Summary `json:"writes"`
	Source   stats.Summary `json:"source"`
}

// Network carries the per-mesh link breakdowns.
type Network struct {
	Request  MeshStats `json:"request"`
	Response MeshStats `json:"response"`
}

// MeshStats summarises one physical mesh.
type MeshStats struct {
	// BusyCycles sums flit launches over every output of the mesh (the
	// power model's network activity input).
	BusyCycles int64 `json:"busyCycles"`
	// Links lists every connected router output, in router-index then
	// port order — deterministic across runs.
	Links []LinkStat `json:"links"`
}

// LinkStat is one router output channel: its sustained utilization and
// the allocator grants behind it.
type LinkStat struct {
	Router string `json:"router"` // "(x,y)" of the owning router
	Port   string `json:"port"`   // "local", "north", ...
	// BusyCycles counts cycles a flit was launched; Utilization divides
	// by the run length. Grants counts channel allocations (one per
	// packet), so BusyCycles/Grants approximates granted packet length.
	BusyCycles  int64   `json:"busyCycles"`
	Grants      int64   `json:"grants"`
	Utilization float64 `json:"utilization"`
}

// NI is one core's network-interface breakdown.
type NI struct {
	Core string `json:"core"`
	// QueueFlitsHWM is the injection-backlog high-water mark in flits
	// (the cap is 64 flits); StallCycles counts the cycles this
	// core's generators were refused injection.
	QueueFlitsHWM int   `json:"queueFlitsHWM"`
	StallCycles   int64 `json:"stallCycles"`
	// SinkReadyHWM is the response-sink ready-list high-water mark.
	SinkReadyHWM int `json:"sinkReadyHWM"`
}

// StreamWorkload is one traffic stream's observed production. The
// counters are maintained by the generator itself (not derived from
// completions), so they reflect the produced distribution even when the
// memory system drops behind.
type StreamWorkload struct {
	Core   string `json:"core"`
	Stream string `json:"stream"`
	// Produced counts generated logical requests; Reads and Writes split
	// them by direction (Produced = Reads + Writes always).
	Produced int64 `json:"produced"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`
	// BlockedCycles counts generation opportunities lost to injection
	// backpressure — the saturation signal the calibration layer uses to
	// tell load deficit from distribution drift.
	BlockedCycles int64 `json:"blockedCycles"`
	// Beats is the produced burst-size histogram over the stream's menu,
	// ascending by size; the bin counts sum to Produced.
	Beats []BeatBin `json:"beats"`
}

// BeatBin is one burst-size bin of a stream's production histogram.
type BeatBin struct {
	Beats int   `json:"beats"`
	Count int64 `json:"count"`
}

// BankStat mirrors dram.BankCounters with its bank index attached.
type BankStat struct {
	Bank       int   `json:"bank"`
	Activates  int64 `json:"activates"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	RowHits    int64 `json:"rowHits"`
	Precharges int64 `json:"precharges"`
	AutoPre    int64 `json:"autoPrecharges"`
}

// StreamQuality classifies adjacent admitted request pairs by the
// paper's SDRAM conditions (lightweight controller only): how
// SDRAM-friendly the order delivered by the network was.
type StreamQuality struct {
	RowHits     int64 `json:"rowHits"`
	Interleaves int64 `json:"interleaves"`
	Conflicts   int64 `json:"conflicts"`
	Contentions int64 `json:"contentions"`
}

// Memory is the memory-subsystem breakdown. On a multi-channel run the
// flat fields aggregate across channels (Banks sums each bank index over
// the channel devices, SinkReadyHWM takes the worst channel, Stream sums
// the pair classifications) and Channels carries the per-channel detail;
// single-channel reports leave Channels and Imbalance absent, keeping
// their JSON byte-identical to the single-SDRAM schema.
type Memory struct {
	Banks []BankStat `json:"banks"`
	// SinkReadyHWM is the memory-side request sink's ready-list
	// high-water mark — how hard the network pushed the controller.
	SinkReadyHWM int `json:"sinkReadyHWM"`
	// Stream is present for the paper's lightweight controller, which
	// observes the arrival order the network scheduled.
	Stream *StreamQuality `json:"stream,omitempty"`
	// Channels is the per-channel breakdown of a multi-channel run, in
	// channel order (absent single-channel).
	Channels []ChannelStat `json:"channels,omitempty"`
	// Imbalance is the load-imbalance factor over the channels' data
	// cycles: busiest channel / mean channel, so 1.0 is perfectly
	// balanced and Channels-many means one channel took everything
	// (0 when no data moved at all). Emitted whenever Channels is —
	// as a pointer, so a perfectly balanced (or idle) multi-channel run
	// stays distinguishable from a single-channel one, which omitempty
	// on a plain float64 used to erase. Absent single-channel.
	Imbalance *float64 `json:"imbalance,omitempty"`
	// Scheduler is the per-scheduler decision breakdown of a run using a
	// non-default memory scheduler (absent otherwise).
	Scheduler *SchedulerStat `json:"scheduler,omitempty"`
}

// SchedulerStat is the decision breakdown of a zoo memory scheduler.
// Only the fields of the selected scheduler are populated; the rest
// stay at their omitted zero values.
type SchedulerStat struct {
	// Name is the scheduler's CLI spelling ("dpq", "regulated", "staged").
	Name string `json:"name"`
	// Grants counts requests granted into the command pipeline (for the
	// staged scheduler, the light and heavy grants combined).
	Grants int64 `json:"grants,omitempty"`
	// MaxBacklog is the DPQ arbiter's queued-request high-water mark.
	MaxBacklog int `json:"maxBacklog,omitempty"`
	// WCETChecked counts completions compared against the DPQ analytic
	// bound (checked runs only).
	WCETChecked int64 `json:"wcetChecked,omitempty"`
	// Throttled counts regulator grant opportunities lost to an exhausted
	// budget; WindowRolls the regulation windows opened after the first,
	// (cycles-1)/Window per channel whatever cycles the controller slept.
	Throttled   int64 `json:"throttled,omitempty"`
	WindowRolls int64 `json:"windowRolls,omitempty"`
	// LightGrants/HeavyGrants/Reclassifications are the staged
	// scheduler's class decisions.
	LightGrants       int64 `json:"lightGrants,omitempty"`
	HeavyGrants       int64 `json:"heavyGrants,omitempty"`
	Reclassifications int64 `json:"reclassifications,omitempty"`
}

// ChannelStat is one SDRAM channel of a multi-channel run: its mesh
// ejection port, its bandwidth, and its own device-level breakdown.
type ChannelStat struct {
	Channel int `json:"channel"`
	// Port is the mesh coordinate of the channel's ejection port.
	Port string `json:"port"`
	// Utilization is this channel's data-bus busy fraction; DataCycles
	// the underlying busy-cycle count (per-channel bandwidth).
	Utilization float64 `json:"utilization"`
	DataCycles  int64   `json:"dataCycles"`
	// Splits counts the request packets routed to this channel;
	// Completions the completions it signalled back. The difference is
	// the channel's in-flight work at end of run (checked mode audits
	// the conservation).
	Splits      int64 `json:"splits"`
	Completions int64 `json:"completions"`
	// Banks is this channel device's per-bank command breakdown.
	Banks []BankStat `json:"banks"`
	// SinkReadyHWM is the channel's request-sink ready-list high-water
	// mark; Stream its arrival-order quality (lightweight controller).
	SinkReadyHWM int            `json:"sinkReadyHWM"`
	Stream       *StreamQuality `json:"stream,omitempty"`
}

// Sample is one point of the optional time series. All occupancy fields
// are instantaneous at the sample cycle; Utilization is the data-bus
// busy fraction within the window ending at the sample cycle.
type Sample struct {
	Cycle       int64   `json:"cycle"`
	Utilization float64 `json:"utilization"`
	// Outstanding counts logical requests in flight (generated, not yet
	// completed); QueueFlits sums the injection backlogs of every core;
	// MemReady is the memory sink's ready-list occupancy.
	Outstanding int `json:"outstanding"`
	QueueFlits  int `json:"queueFlits"`
	MemReady    int `json:"memReady"`
}

// EncodeJSON writes the canonical serialization of one report: two-space
// indented JSON, newline terminated, SchemaVersion stamped to Schema when
// the report predates stamping. The aanoc serve results endpoint, the
// golden corpus and the benchmark's digests go through this function;
// the command line's sidecar writer goes through EncodeSidecar
// (json.MarshalIndent), whose bytes for a report are these by
// TestEncodeJSONMatchesStdlib — so a report has exactly one byte
// representation and byte-level comparisons (golden tests, cache-parity
// tests) are meaningful. The result store is not one of them: it keeps
// a whole system.Result in a checksummed binary entry of its own, and a
// report read back from it is re-encoded here.
func EncodeJSON(w io.Writer, r *Report) error {
	if r.SchemaVersion == 0 {
		r.SchemaVersion = Schema
	}
	// A bytes.Buffer or bufio.Writer lends its spare capacity, so encoding
	// into a reused buffer allocates nothing.
	var data []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		data = ab.AvailableBuffer()
	}
	data, err := appendValue(data, reflect.ValueOf(r).Elem(), 0)
	if err != nil {
		return fmt.Errorf("obs: encode: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// DecodeJSON is EncodeJSON's inverse: it decodes one report, rejects
// schema versions this binary does not know (a sidecar written by a
// newer build must not be silently misread), and applies the Validate
// invariants. A zero SchemaVersion is accepted as the legacy
// pre-versioned schema.
func DecodeJSON(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if r.SchemaVersion > Schema {
		return nil, fmt.Errorf("obs: report schema v%d is newer than this binary's v%d", r.SchemaVersion, Schema)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// EncodeSidecar renders a report-bearing aggregate — a list of reports
// (aanoc sim -all), a table/point sidecar — in the same canonical form
// EncodeJSON uses for a single report, so every JSON artifact the CLIs
// emit shares one encoding discipline.
func EncodeSidecar(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: encode sidecar: %w", err)
	}
	return append(data, '\n'), nil
}

// Validate checks the invariants every finished run's report satisfies.
func (r *Report) Validate() error {
	switch {
	case r.SchemaVersion < 0 || r.SchemaVersion > Schema:
		return fmt.Errorf("obs: report schema version %d outside [0,%d]", r.SchemaVersion, Schema)
	case r.Cycles <= 0:
		return fmt.Errorf("obs: report has no cycles (%d)", r.Cycles)
	case r.Design == "" || r.App == "":
		return fmt.Errorf("obs: report missing design/app identity")
	case r.Utilization < 0 || r.Utilization > 1:
		return fmt.Errorf("obs: utilization %v outside [0,1]", r.Utilization)
	case r.Generated < r.Completed:
		return fmt.Errorf("obs: completed %d exceeds generated %d", r.Completed, r.Generated)
	case len(r.Network.Request.Links) == 0:
		return fmt.Errorf("obs: report has no request-mesh links")
	case len(r.Memory.Banks) == 0:
		return fmt.Errorf("obs: report has no per-bank breakdown")
	case r.SampleEvery < 0:
		return fmt.Errorf("obs: negative sampling interval %d", r.SampleEvery)
	case r.SampleEvery == 0 && len(r.Samples) > 0:
		return fmt.Errorf("obs: samples present without a sampling interval")
	case len(r.Memory.Channels) > 0 && r.Memory.Imbalance == nil:
		return fmt.Errorf("obs: multi-channel report missing imbalance")
	case len(r.Memory.Channels) == 0 && r.Memory.Imbalance != nil:
		return fmt.Errorf("obs: imbalance present without a channel breakdown")
	case !r.Checked && len(r.Violations) > 0:
		return fmt.Errorf("obs: violations recorded outside checked mode")
	}
	for _, links := range [...][]LinkStat{r.Network.Request.Links, r.Network.Response.Links} {
		for _, l := range links {
			if l.BusyCycles < 0 || l.BusyCycles > r.Cycles {
				return fmt.Errorf("obs: link %s %s busy %d cycles of a %d-cycle run", l.Router, l.Port, l.BusyCycles, r.Cycles)
			}
		}
	}
	for _, s := range r.Samples {
		if s.Cycle <= 0 || s.Cycle > r.Cycles {
			return fmt.Errorf("obs: sample cycle %d outside run (0,%d]", s.Cycle, r.Cycles)
		}
	}
	for _, w := range r.Workload {
		if w.Produced != w.Reads+w.Writes {
			return fmt.Errorf("obs: workload %s/%s produced %d but reads %d + writes %d",
				w.Core, w.Stream, w.Produced, w.Reads, w.Writes)
		}
		var sum int64
		prev := 0
		for _, b := range w.Beats {
			if b.Beats <= prev {
				return fmt.Errorf("obs: workload %s/%s beat bins not ascending positive", w.Core, w.Stream)
			}
			if b.Count < 0 {
				return fmt.Errorf("obs: workload %s/%s negative bin count", w.Core, w.Stream)
			}
			prev = b.Beats
			sum += b.Count
		}
		if sum != w.Produced {
			return fmt.Errorf("obs: workload %s/%s bins sum %d of %d produced", w.Core, w.Stream, sum, w.Produced)
		}
	}
	for _, ch := range r.Memory.Channels {
		if ch.Utilization < 0 || ch.Utilization > 1 {
			return fmt.Errorf("obs: channel %d utilization %v outside [0,1]", ch.Channel, ch.Utilization)
		}
		if len(ch.Banks) == 0 {
			return fmt.Errorf("obs: channel %d has no per-bank breakdown", ch.Channel)
		}
		if ch.Completions > ch.Splits {
			return fmt.Errorf("obs: channel %d completed %d of %d routed splits", ch.Channel, ch.Completions, ch.Splits)
		}
	}
	return nil
}
