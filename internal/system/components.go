package system

import (
	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// comp adapts a closure pair to sim.Component: the pieces of the old
// monolithic Runner.Step become named components, one per phase slot.
type comp struct {
	name  string
	phase sim.Phase
	tick  func(now int64)
	next  func(now int64) int64
}

func (c *comp) Name() string             { return c.name }
func (c *comp) Phase() sim.Phase         { return c.phase }
func (c *comp) Tick(now int64)           { c.tick(now) }
func (c *comp) NextWake(now int64) int64 { return c.next(now) }

// buildKernel registers the wired subsystems with a fresh simulation
// kernel: one component per mesh, one per memory channel, two per core.
// Phase order plus registration order reproduce the exact intra-cycle
// sequence of the pre-kernel monolithic Step:
//
//	Network   req mesh, resp mesh (each: deliver, then arbitrate)
//	Memory    per channel: sink drain + admission, controller, response injector
//	Complete  per-core response sink drain + split retirement
//	Inject    per-core generation + injection
//	Audit     observability sampling, checked-mode mesh audits
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

	for i, m := range []*noc.Mesh{r.reqMesh, r.respMesh} {
		h := k.Register(&comp{name: [...]string{"req", "resp"}[i], phase: sim.PhaseNetwork, tick: m.Cycle,
			next: func(now int64) int64 {
				if m.Busy() {
					return now + 1
				}
				return sim.Never
			}})
		// The first flit or credit of the cycle went onto a link, after
		// this cycle's delivery: deliver it next cycle, exactly when the
		// always-ticked mesh would have.
		m.OnWake = func() { h.Wake(k.Now() + 1) }
	}

	for i := range r.chans {
		c := &r.chans[i]
		c.h = k.Register(c)
		c.sink.OnArrival = func(now int64) { c.h.Wake(now) }
		// Credits return in the Network phase, ahead of Memory and Inject,
		// so the woken tick launches in the cycle the every-cycle loop
		// would; the same holds for a core's injection below.
		c.respInj.OnCredit = func() { c.h.Wake(k.Now()) }
	}

	// A core's two: response completion, then generation and injection.
	for _, c := range r.cores {
		hc := k.Register(&comp{
			name: "core-complete/" + c.spec.Name, phase: sim.PhaseComplete,
			tick: func(now int64) {
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
			},
			// Awake while the sink can still move a flit; the tick pops
			// everything ready, so the rest waits on a flit's arrival.
			next: func(now int64) int64 {
				if c.sink.CanDrain() {
					return now + 1
				}
				return sim.Never
			},
		})
		c.sink.OnArrival = func(now int64) { hc.Wake(now) }
		c.hInject = k.Register(&comp{
			name: "core-inject/" + c.spec.Name, phase: sim.PhaseInject,
			tick: func(now int64) {
				r.settle(c, now)
				c.sleptFrom = sim.Never
				blocked := c.inj.QueueFlits() >= r.cfg.InjectCap
				if blocked {
					// The injection backpressure point: this core's
					// generators lose the cycle. Counted once per core per
					// cycle, here or — for the cycles a blocked core
					// sleeps through — in settle.
					r.met.Stalled++
					c.stalls++
				}
				for _, g := range c.gens {
					req := g.Tick(now, blocked)
					if req == nil {
						continue
					}
					r.injectLogical(c, g, req, now)
				}
				c.inj.Step(now)
			},
			next: func(now int64) int64 {
				if c.inj.CanLaunch() {
					return now + 1
				}
				if c.inj.QueueFlits() >= r.cfg.InjectCap {
					// Full and out of credits: until a credit returns the
					// tick only counts the lost cycle, and settle counts
					// those in arrears.
					c.sleptFrom = now + 1
					return sim.Never
				}
				next := sim.Never
				for _, g := range c.gens {
					if a := g.NextArrival(); a < next {
						next = a
					}
				}
				return next
			},
		})
		c.inj.OnCredit = func() { c.hInject.Wake(k.Now()) }
	}

	if se := r.cfg.SampleEvery; se > 0 {
		k.Register(&comp{
			name: "obs-sample", phase: sim.PhaseAudit,
			tick: func(now int64) {
				if (now+1)%se == 0 {
					r.sample(now+1, se)
				}
			},
			next: func(now int64) int64 {
				// The smallest n > now with (n+1) divisible by se: sampling
				// windows close on exact cycles even across skipped gaps.
				return (now+1+se)/se*se - 1
			},
		})
	}

	if r.chk != nil {
		// Checked mode audits every settled cycle, which also pins the
		// kernel to visit every cycle — the conservation walks are
		// per-cycle invariants, not samplable ones.
		k.Register(&comp{
			name: "check-audit", phase: sim.PhaseAudit,
			tick: func(now int64) { r.auditMeshes(now) },
			next: func(now int64) int64 { return now + 1 },
		})
	}
}

// settle brings a core's lazily kept counters up to cycle now
// (exclusive). While the core sleeps blocked its tick would only have
// counted the lost cycle — in Metrics.Stalled, the core's stalls and
// each due stream's Blocked — so the sleep is paid for here, in one
// step, by whoever is about to read those counters or change what they
// depend on: the tick itself, completeSplit before it touches a stream,
// Metrics and Finish. With idle-skip off the core ticks every cycle and
// there is never anything to pay.
func (r *Runner) settle(c *coreNI, now int64) {
	n := now - c.sleptFrom
	if n <= 0 {
		return // awake (sleptFrom is Never), or settled through now already
	}
	r.met.Stalled += n
	c.stalls += n
	for _, g := range c.gens {
		g.SkipBlocked(c.sleptFrom, now)
	}
	c.sleptFrom = now
}

// Name, Phase, Tick and NextWake make a channel its own kernel component.
func (c *channel) Name() string     { return "mem" + c.sfx }
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
