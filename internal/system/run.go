package system

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"aanoc/internal/core"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/trace"
	"aanoc/internal/traffic"
)

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

// parentTable maps logical-request parent IDs to their records. It is
// simulator bookkeeping, not modelled hardware. Parent IDs are issued
// rising, so add appends and find binary-searches; a removed record
// leaves a nil that add sweeps out, in place, once the slab is full and
// at least half removed. Unlike the builtin map, whose per-map hash seed
// decides when it grows, what it allocates depends on the run alone.
type parentTable struct {
	s    []parentSlot
	live int // slots with a record
}

type parentSlot struct {
	id  int64
	rec *logical // nil once removed
}

func (t *parentTable) add(id int64, l *logical) {
	if len(t.s) == cap(t.s) && 2*t.live <= len(t.s) {
		t.s = slices.DeleteFunc(t.s, func(e parentSlot) bool { return e.rec == nil })
	}
	t.s = append(t.s, parentSlot{id, l})
	t.live++
}

// find returns id's slot, or nil when it holds no record.
func (t *parentTable) find(id int64) *parentSlot {
	i, ok := slices.BinarySearchFunc(t.s, id, func(e parentSlot, id int64) int { return cmp.Compare(e.id, id) })
	if !ok || t.s[i].rec == nil {
		return nil
	}
	return &t.s[i]
}

// each visits every live record in ID order, so what the checked mode
// reports from the walk comes out in a fixed order.
func (t *parentTable) each(fn func(id int64, l *logical)) {
	for _, e := range t.s {
		if e.rec != nil {
			fn(e.id, e.rec)
		}
	}
}

// onMemDone handles a controller completion on one channel: writes
// complete the split immediately; reads send a response packet back
// through the response mesh from the channel's port. Either way the
// request packet is finished with and returns to the pool.
func (r *Runner) onMemDone(c *channel, done memctrl.Completion) {
	c.done++
	p := done.Pkt
	if p.Kind == noc.Write {
		r.completeSplit(p, done.At)
		r.pkts.Put(p)
		return
	}
	r.nextID++
	resp := r.pkts.Get()
	*resp = noc.Packet{
		ID: r.nextID, ParentID: p.ParentID,
		SrcCore: p.SrcCore, Src: c.port, Dst: p.Src,
		Kind: noc.Read, Class: p.Class, Priority: p.Priority,
		Addr: p.Addr, Beats: p.Beats,
		Flits: noc.FlitsForBeats(p.Beats), Splits: p.Splits,
		Gen: p.Gen, Response: true,
	}
	r.pkts.Put(p)
	// The channel's tick launches from its response injector right after
	// the controller's, so the response can leave this same cycle.
	c.respInj.Enqueue(resp)
}

// completeSplit retires one split of a logical request; the last one
// records the latency sample and unblocks a closed-loop stream.
func (r *Runner) completeSplit(p *noc.Packet, at int64) {
	e := r.parents.find(p.ParentID)
	if e == nil {
		return
	}
	l := e.rec
	l.pending--
	if l.pending > 0 {
		return
	}
	e.rec = nil
	r.parents.live--
	c := r.cores[l.core]
	// The stream's window and think time are about to change: pay the
	// core's slept cycles at the state they were slept in.
	r.settle(c, r.kern.Now())
	c.completed++
	c.beats += int64(l.beats)
	c.latencySum += at - l.gen
	if l.gen >= r.cfg.Warmup {
		entry := l.entry
		if entry < 0 {
			entry = l.gen
		}
		r.met.Record(at-entry, l.class == noc.ClassDemand, l.priority, l.read)
		r.met.SourceLatency.Add(at - l.gen)
	}
	l.stream.OnComplete(at)
	// The completion refills a closed-loop window: the stream can
	// generate no earlier than next cycle (think time is at least one),
	// so wake the core then and let its NextWake refine the estimate.
	c.h.Wake(r.kern.Now() + 1)
	r.logs.Put(l)
}

// RunTo advances the simulation to the given cycle, skipping spans
// where every component sleeps (unless idle-skip is disabled).
func (r *Runner) RunTo(cycle int64) { r.kern.RunUntil(cycle) }

// SetIdleSkip toggles fast-forwarding over all-idle cycles in RunTo.
// On (the default) and off produce identical results; off is the
// reference mode the equivalence tests and Config.NoIdleSkip select.
// New sets the kernel's mode from the Config itself, so no product path
// calls this: it is kept as the reference mode's switch on a built
// Runner, for the tests and the benchmark's idle-skip probe.
func (r *Runner) SetIdleSkip(on bool) { r.kern.SetIdleSkip(on) }

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
	base := r.pkts.Get()
	*base = noc.Packet{
		ID: r.nextID, ParentID: r.nextID,
		SrcCore: c.idx, Src: c.spec.Pos, Dst: r.chans[ch].port,
		Kind: req.Kind, Class: req.Class, Priority: req.Priority,
		Addr: local, Beats: req.Beats, Gen: now,
		APTag: req.EndOfRow || r.cfg.TagEveryRequest,
	}
	// The split list is scratch: rebuilt here for every request, and
	// nothing keeps it past the Enqueue loop below.
	pkts := r.splits[:0]
	if r.split != nil {
		var err error
		if pkts, err = r.split.Split(pkts, base, r.newID); err != nil {
			panic(fmt.Sprintf("system: split failed: %v", err))
		}
	} else {
		core.NoSplit(base)
		pkts = append(pkts, base)
	}
	r.splits = pkts
	l := r.logs.Get()
	*l = logical{
		gen: now, entry: -1, stream: g, class: req.Class, priority: req.Priority,
		read: req.Kind == noc.Read, pending: len(pkts),
		core: c.idx, beats: req.Beats,
	}
	r.parents.add(base.ID, l)
	c.generated++
	r.chans[ch].sent += int64(len(pkts))
	// A write split under SAGM replaces the base packet with per-granule
	// copies; the base itself never enters the mesh, so recycle it now
	// (its ID lives on as the chain's ParentID key, which is by value).
	if len(pkts) > 0 && pkts[0] != base {
		r.pkts.Put(base)
	}
	for _, p := range pkts {
		c.inj.Enqueue(p)
	}
}

// settleAll settles every core through the current cycle.
func (r *Runner) settleAll() {
	for _, c := range r.cores {
		r.settle(c, r.kern.Now())
	}
}

// Now returns the current cycle.
func (r *Runner) Now() int64 { return r.kern.Now() }

// Run executes a complete simulation for the configuration.
func Run(cfg Config) (Result, error) { return RunContext(context.Background(), cfg) }

// runEpoch is the cancellation granularity of RunContext: the kernel
// advances in epochs of this many cycles, checking the context between
// them. RunUntil chunking is observably idempotent, so epoch runs
// produce bit-identical results to one uninterrupted RunTo.
const runEpoch = 16384

// RunContext executes a complete simulation, honouring cancellation
// between kernel epochs. A cancelled run returns the context's error
// and no result.
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
