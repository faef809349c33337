package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer's exported API.
type span struct {
	Name   string
	Phase  string // "setup", "op" or "probe": which part of the run made the call
	Op     int    // timed-op number the call belongs to (-1 outside timed ops)
	Parent int    // index of the enclosing span, -1 at the root
	Worker int    // display track; concurrent roots get distinct tracks
	Start  time.Duration
	End    time.Duration
	owns   bool // this span took its Worker track and releases it on end
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory and writes them out when the run ends.
// Every method is a no-op while the tracer is off, so the same harness
// code runs traced and untraced ops; the run alternates the two to
// measure what recording costs (bench.trace_overhead_frac).
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	phase string
	op    int
	spans []span
	busy  []bool // worker tracks in use; track 0 is the harness goroutine
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), phase: "setup", op: -1, busy: []bool{true}}
}

// enter switches recording on or off and labels what follows.
func (t *tracer) enter(on bool, phase string, op int) {
	t.mu.Lock()
	t.on, t.phase, t.op = on, phase, op
	t.mu.Unlock()
}

// begin opens a span on its parent's track (track 0 at the root).
func (t *tracer) begin(name string, parent int) int { return t.open(name, parent, false) }

// beginWorker opens a span on a free track of its own: the sweep
// executor calls the wrapped RunFunc and store from several goroutines
// at once, and overlapping spans need separate tracks to render.
func (t *tracer) beginWorker(name string, parent int) int { return t.open(name, parent, true) }

func (t *tracer) open(name string, parent int, ownTrack bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	worker := 0
	switch {
	case ownTrack:
		worker = 1
		for worker < len(t.busy) && t.busy[worker] {
			worker++
		}
		if worker == len(t.busy) {
			t.busy = append(t.busy, false)
		}
		t.busy[worker] = true
	case parent >= 0:
		worker = t.spans[parent].Worker
	}
	t.spans = append(t.spans, span{
		Name: name, Phase: t.phase, Op: t.op, Parent: parent, Worker: worker,
		Start: time.Since(t.epoch), owns: ownTrack,
	})
	return len(t.spans) - 1
}

// rename relabels an open span once the call's outcome is known.
func (t *tracer) rename(id int, name string) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// end closes a span; -1 (opened while off) is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	if s.owns {
		t.busy[s.Worker] = false
	}
	t.mu.Unlock()
}

// durations returns the seconds of every span with the name, from timed
// ops when any op recorded one and from the whole run otherwise (so a
// layer only the set-up or a probe exercised still gets its number).
func (t *tracer) durations(name string) []float64 {
	var ops, all []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		all = append(all, s.dur().Seconds())
		if s.Phase == "op" {
			ops = append(ops, s.dur().Seconds())
		}
	}
	if len(ops) > 0 {
		return ops
	}
	return all
}

// perOp sums the named spans within each traced op (or within the
// set-up when no op recorded one) and returns one total per op.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int]float64{}
	setup := 0.0
	for _, s := range t.spans {
		switch {
		case s.Name != name:
		case s.Phase == "op":
			sums[s.Op] += s.dur().Seconds()
		case s.Phase == "setup":
			setup += s.dur().Seconds()
		}
	}
	if len(sums) == 0 {
		return []float64{setup}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Phase, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Worker,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
