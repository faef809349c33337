package system

import (
	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// buildKernel registers the wired subsystems with a fresh simulation
// kernel: one component per mesh, one per memory channel, one per core.
// Phase order plus registration order reproduce the exact intra-cycle
// sequence of the pre-kernel monolithic Step:
//
//	Network   req mesh, resp mesh (each: deliver, then arbitrate)
//	Memory    per channel: sink drain + admission, controller, response injector
//	Core      per core: response sink drain + split retirement, then
//	          generation + injection
//	Audit     observability sampling (checked mode is the kernel's observer)
//
// (The old Step delivered on both meshes before either arbitrated,
// drained core sinks before the controller ticked and retired splits
// after, and launched responses last. Each regrouping here orders work
// on disjoint state — one mesh against the other, the request pipeline
// against the response mesh's sinks, a channel's response injector
// against the cores' sinks — so it is order-equivalent.)
//
// Each component's NextWake gives the activity-driven idle-skip its
// soundness: a component only sleeps through cycles its tick provably
// would not change state, and every producer of cross-component input
// wakes the consumer's handle. Nothing here polls a blocked neighbour:
// the meshes walk only their active sets, the injecting components
// sleep on a backlog they have no credit for until the credit's return
// wakes them, the counters a blocked core's tick would have bumped
// meanwhile are settled in arrears (settle), and a channel sleeps on a
// refused head and its controller's own event bound (channel.NextWake).
// DESIGN.md "Execution model" has the wake table.
func (r *Runner) buildKernel() {
	k := sim.NewKernel()
	r.kern = k
	r.meshes = [2]meshComp{{r.reqMesh}, {r.respMesh}}
	// One registration, phase by phase: the kernel sizes its arrays and
	// draws the handles from one slab.
	ch, co := 2, 2+len(r.chans) // where the channels and the cores start
	n := co + len(r.cores)
	comps := make([]sim.Component, n, n+1)
	comps[0], comps[1] = &r.meshes[0], &r.meshes[1]
	for i := range r.chans {
		comps[ch+i] = &r.chans[i]
	}
	for i, c := range r.cores {
		comps[co+i] = c
	}
	if r.cfg.SampleEvery > 0 {
		comps = append(comps, (*sampler)(r))
	}
	hs := k.Register(comps...)
	if r.chk != nil {
		k.Observe(r.auditMeshes)
	}

	for i := range r.meshes {
		h := &hs[i]
		// The first flit or credit of the cycle went onto a link, after
		// this cycle's delivery: deliver it next cycle, exactly when the
		// always-ticked mesh would have.
		r.meshes[i].OnWake = func() { h.Wake(k.Now() + 1) }
	}
	for i := range r.chans {
		// Credits return in the Network phase, ahead of Memory and Core,
		// so the woken tick launches in the cycle the every-cycle loop
		// would; the same holds for a core below.
		c := &r.chans[i]
		c.h = &hs[ch+i]
		c.sink.Consumer, c.respInj.Producer = c.h, c.h
	}
	for i, c := range r.cores {
		c.h = &hs[co+i]
		c.sink.Consumer, c.inj.Producer = c.h, c.h
	}
}

// meshComp makes a mesh its own kernel component: a Cycle on every
// cycle it is Busy.
type meshComp struct{ *noc.Mesh }

func (m *meshComp) Phase() sim.Phase { return sim.PhaseNetwork }
func (m *meshComp) Tick(now int64)   { m.Cycle(now) }
func (m *meshComp) NextWake(now int64) int64 {
	if m.Busy() {
		return now + 1
	}
	return sim.Never
}

// A core's network interface is its one kernel component.
func (c *coreNI) Phase() sim.Phase { return sim.PhaseCore }

// Tick is one cycle of the interface: the sink drains and retires every
// ready response packet, then the generators tick and the injector
// launches; a packet whose last flit that launched makes room for the
// backlog's next split, cut at once (launched).
func (c *coreNI) Tick(now int64) {
	r := c.r
	c.sink.Step(now)
	for {
		p := c.sink.Pop(now)
		if p == nil {
			break
		}
		r.completeSplit(p, now)
		// The response packet's journey ends here; recycle it.
		r.pkts.Put(p)
	}
	r.settle(c, now)
	c.sleptFrom = sim.Never
	blocked := c.queued() >= injectCap
	if blocked {
		// The injection backpressure point: this core's generators lose
		// the cycle. Counted once per core per cycle, here or — for the
		// cycles a blocked core sleeps through — in settle.
		c.stalls++
	}
	for _, g := range c.gens {
		if req := g.Tick(now, blocked); req != nil {
			r.injectLogical(c, g, req, now)
		}
	}
	if p := c.inj.Step(now); p != nil {
		r.launched(c, p)
	}
}

// queued is the NI's injection backlog in flits: the splits not yet cut
// and the flits the injector has yet to launch.
func (c *coreNI) queued() int { return c.uncut + c.inj.QueueFlits() }

// NextWake keeps the interface awake while its sink can still move a
// flit or its injector launch one. Otherwise it sleeps on a flit's
// arrival or a credit's return, and — unless full and out of credits,
// when the tick would only count the lost cycle and settle counts those
// in arrears — on its generators' next arrival.
func (c *coreNI) NextWake(now int64) int64 {
	if c.sink.CanDrain() || c.inj.CanLaunch() {
		return now + 1
	}
	if c.queued() >= injectCap {
		c.sleptFrom = now + 1
		return sim.Never
	}
	return c.nextArrival()
}

// nextArrival is the earliest cycle one of the core's generators could
// produce a request.
func (c *coreNI) nextArrival() int64 {
	next := sim.Never
	for _, g := range c.gens {
		next = min(next, g.NextArrival())
	}
	return next
}

// sampler is the observability sampling component (Config.SampleEvery).
type sampler Runner

func (s *sampler) Phase() sim.Phase { return sim.PhaseAudit }

func (s *sampler) Tick(now int64) {
	if se := s.cfg.SampleEvery; (now+1)%se == 0 {
		(*Runner)(s).sample(now+1, se)
	}
}

// NextWake is the smallest n > now with (n+1) divisible by SampleEvery:
// sampling windows close on exact cycles even across skipped gaps.
func (s *sampler) NextWake(now int64) int64 {
	se := s.cfg.SampleEvery
	return (now+1+se)/se*se - 1
}

// settle brings a core's lazily kept counters up to cycle now
// (exclusive). While the core sleeps blocked its tick would only have
// counted the lost cycle — in the core's stalls and each due stream's
// Blocked — so the sleep is paid for here, in one step, by whoever is
// about to read those counters or change what they depend on: the tick
// itself, completeSplit before it touches a stream, and Finish. With
// idle-skip off the core ticks every cycle and there is never anything
// to pay.
func (r *Runner) settle(c *coreNI, now int64) {
	n := now - c.sleptFrom
	if n <= 0 {
		return // awake (sleptFrom is Never), or settled through now already
	}
	c.stalls += n
	for _, g := range c.gens {
		g.SkipBlocked(c.sleptFrom, now)
	}
	c.sleptFrom = now
}

// Phase, Tick and NextWake make a channel its own kernel component.
func (c *channel) Phase() sim.Phase { return sim.PhaseMemory }

// Tick is one cycle of the channel, request to response: the sink
// drains and offers its ready packets in order until the controller
// refuses one; the controller ticks if its own bound is due or it has
// just admitted (it must see the admission this cycle); the response
// injector launches, so a read finished in this tick leaves in it. A
// refused head is not offered again until the controller has ticked:
// Accepts changes only in Offer and Tick (memctrl.Controller), so the
// answer is asked once after each controller tick instead.
func (c *channel) Tick(now int64) {
	c.sink.Step(now)
	admitted := false
	for !c.refused {
		p := c.sink.Peek()
		if p == nil {
			break
		}
		if !c.ctrl.Offer(p, now) {
			c.refused = true
			break
		}
		c.sink.Pop(now)
		admitted = true
	}
	if admitted || c.memDue <= now {
		c.ctrl.Tick(now)
		c.memDue = c.ctrl.NextEvent(now)
		p := c.sink.Peek()
		c.refused = p != nil && !c.ctrl.Accepts(p)
	}
	c.respInj.Step(now)
}

// NextWake keeps the channel awake while its sink can drain a flit, its
// injector can launch one, or the controller's tick left the head
// acceptable (the polled admission offered it, and succeeded, next
// cycle). Otherwise it sleeps until the controller is due, or until a
// flit's arrival or a credit's return wakes it.
func (c *channel) NextWake(now int64) int64 {
	if c.sink.CanDrain() || c.respInj.CanLaunch() || !c.refused && c.sink.Peek() != nil {
		return now + 1
	}
	return c.memDue
}
