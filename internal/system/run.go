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
	id       int64 // the request's parent ID; 0 while the slot is free
	gen      int64 // generation cycle at the core
	entry    int64 // cycle the first flit entered the request mesh (-1 until then)
	stream   traffic.Source
	class    noc.Class
	priority bool
	read     bool
	free     int32 // while the slot is free: the next free slot, 0 for none
	pending  int
	core     int
	beats    int
}

// slotSlab is how many records the slot table adds at once.
const slotSlab = 64

// slotTable holds the outstanding logical requests. It is simulator
// bookkeeping, not modelled hardware. Each record sits in a slot whose
// number every packet of the request carries as Packet.Req, so a split's
// record is two loads away. Slots are 1-based, so a packet's zero Req
// names none; records live in slabs that never move, and a freed slot
// links the free list through its own record.
type slotTable struct {
	slabs []*[slotSlab]logical
	free  int32 // first free slot, 0 for none
	live  int   // slots with a record
}

// add takes a free slot, growing the table by a slab when none is free,
// and returns it and its record, which the caller overwrites whole: a
// live record's id is its request's parent ID, never 0.
func (t *slotTable) add() (int32, *logical) {
	if t.free == 0 {
		base := int32(len(t.slabs)) * slotSlab
		slab := new([slotSlab]logical)
		for i := range slab {
			slab[i].free = base + int32(i) + 2
		}
		slab[slotSlab-1].free = 0
		t.slabs = append(t.slabs, slab)
		t.free = base + 1
	}
	slot := t.free
	l := t.at(slot)
	t.free = l.free
	t.live++
	return slot, l
}

// at returns slot's record; the caller holds the slot.
func (t *slotTable) at(slot int32) *logical {
	i := uint32(slot - 1)
	return &t.slabs[i/slotSlab][i%slotSlab]
}

// remove frees slot; its record is zeroed, so a stale handle finds id 0.
func (t *slotTable) remove(slot int32) {
	l := t.at(slot)
	*l = logical{free: t.free}
	t.free = slot
	t.live--
}

// each visits every live record in ID order, so what the checked mode
// reports from the walk comes out in a fixed order. It sorts, so only
// the end-of-run checks call it.
func (t *slotTable) each(fn func(l *logical)) {
	var recs []*logical
	for _, slab := range t.slabs {
		for i := range slab {
			if slab[i].id != 0 {
				recs = append(recs, &slab[i])
			}
		}
	}
	slices.SortFunc(recs, func(a, b *logical) int { return cmp.Compare(a.id, b.id) })
	for _, l := range recs {
		fn(l)
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
		ID: r.nextID, ParentID: p.ParentID, Req: p.Req,
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
	if r.chk != nil && (p.Req == 0 || r.reqs.at(p.Req).id != p.ParentID) {
		r.chk.Reportf(at, "runner", "split-accounting",
			"packet %d of request %d completes holding slot %d", p.ID, p.ParentID, p.Req)
		return
	}
	if p.Req == 0 {
		return
	}
	l := r.reqs.at(p.Req)
	l.pending--
	if l.pending > 0 {
		return
	}
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
	r.reqs.remove(p.Req)
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
	slot, l := r.reqs.add()
	base := r.pkts.Get()
	*base = noc.Packet{
		ID: r.nextID, ParentID: r.nextID, Req: slot,
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
	*l = logical{
		id: base.ID, gen: now, entry: -1, stream: g, class: req.Class, priority: req.Priority,
		read: req.Kind == noc.Read, pending: len(pkts),
		core: c.idx, beats: req.Beats,
	}
	c.generated++
	r.chans[ch].sent += int64(len(pkts))
	// A write split under SAGM replaces the base packet with per-granule
	// copies; the base itself never enters the mesh, so recycle it now
	// (its ID and slot live on in the splits, which hold them by value).
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
