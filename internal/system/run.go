package system

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"aanoc/internal/core"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/trace"
	"aanoc/internal/traffic"
)

// logical tracks an outstanding logical request across its splits. It
// is also the template its packets are cut from: until the last is cut,
// the request waits in its core's backlog as this record, not as packets.
type logical struct {
	id     int64 // the request's parent ID; 0 while the slot is free
	gen    int64 // generation cycle at the core
	entry  int64 // cycle the first flit entered the request mesh (-1 until then)
	stream traffic.Source
	addr   dram.Address // the channel-local address its packets carry
	// next links the free list while the slot is free, and the core's
	// backlog while the request waits in it; 0 ends either.
	next               int32
	pending            int32 // splits not yet completed, the uncut ones included
	beats              int32
	core               int32 // index in Runner.cores
	ch                 int32 // index in Runner.chans
	class              uint8 // a noc.Class
	priority, read, ap bool
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
			slab[i].next = base + int32(i) + 2
		}
		slab[slotSlab-1].next = 0
		t.slabs = append(t.slabs, slab)
		t.free = base + 1
	}
	slot := t.free
	l := t.at(slot)
	t.free = l.next
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
	*l = logical{next: t.free}
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
		r.met.Record(at-entry, noc.Class(l.class) == noc.ClassDemand, l.priority, l.read)
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

// injectLogical files a logical request in its core's backlog, on the
// virtual channel its packets will ride. The request's counts move now:
// its slot and pending splits, its IDs, the channel's routed splits and
// the core's backlog in flits. Its packets are cut one at a time as the
// injector reaches them (cut); the first right away if that channel's
// backlog was empty.
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
	*l = logical{
		id: r.nextID, gen: now, entry: -1, stream: g, addr: local,
		beats: int32(req.Beats), core: int32(c.idx), ch: int32(ch),
		class: uint8(req.Class), priority: req.Priority, read: req.Kind == noc.Read,
		ap: req.EndOfRow || r.cfg.TagEveryRequest,
	}
	n, flits := r.size(l)
	if r.split != nil && !l.read {
		r.nextID += int64(n) // a write's splits are numbered after it (core.Splitter.Cut)
	}
	l.pending = int32(n)
	c.generated++
	r.chans[ch].sent += int64(n)
	c.uncut += flits
	c.queuedHWM = max(c.queuedHWM, c.queued())
	q := &c.backlog[noc.VCOf(req.Priority, r.cfg.VirtualChannels)]
	if q.head == 0 {
		q.head, q.tail = slot, slot
		r.cut(c, q)
		return
	}
	r.reqs.at(q.tail).next = slot
	q.tail = slot
}

// backlog is one virtual channel's queue of requests in a core's network
// interface, oldest first, linked through their records' next: each
// request stays in it from generation until its last packet has
// launched. The head's current packet, numbered cut-1, is the one packet
// the injector holds on that channel, so a non-empty backlog always has
// its next flit queued.
type backlog struct{ head, tail, cut int32 }

// size returns how many packets l travels as and their flits together.
func (r *Runner) size(l *logical) (packets, flits int) {
	switch {
	case r.split != nil:
		return r.split.Size(l.kind(), int(l.beats))
	case l.read:
		return 1, 1
	}
	return 1, noc.FlitsForBeats(int(l.beats))
}

// kind is the request's read or write.
func (l *logical) kind() noc.Kind {
	if l.read {
		return noc.Read
	}
	return noc.Write
}

// packet fills p with split k of the request in slot, one of c's.
func (r *Runner) packet(p *noc.Packet, c *coreNI, slot int32, l *logical, k int) {
	*p = noc.Packet{
		ID: l.id, Req: slot, SrcCore: c.idx, Src: c.spec.Pos, Dst: r.chans[l.ch].port,
		Kind: l.kind(), Class: noc.Class(l.class), Priority: l.priority,
		Addr: l.addr, Beats: int(l.beats), Gen: l.gen, APTag: l.ap,
	}
	if r.split != nil {
		r.split.Cut(p, k)
	} else {
		core.NoSplit(p)
	}
}

// cut leases the packet of the next split of q's head request and queues
// it on c's injector: the packet's lease starts here.
func (r *Runner) cut(c *coreNI, q *backlog) {
	p := r.pkts.Get()
	r.packet(p, c, q.head, r.reqs.at(q.head), int(q.cut))
	q.cut++
	c.uncut -= p.Flits
	c.inj.Enqueue(p)
}

// launched moves c's backlog on past p, whose last flit the injector has
// just launched: its request leaves the backlog if p was its last split,
// and the backlog's next split is cut, so the injector has it next cycle.
func (r *Runner) launched(c *coreNI, p *noc.Packet) {
	q := &c.backlog[noc.VCOf(p.Priority, r.cfg.VirtualChannels)]
	l := r.reqs.at(q.head)
	if n, _ := r.size(l); int(q.cut) == n {
		q.head, q.cut, l.next = l.next, 0, 0
		if q.head == 0 {
			q.tail = 0
			return
		}
	}
	r.cut(c, q)
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
