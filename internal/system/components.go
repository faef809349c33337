package system

import (
	"fmt"

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
// kernel. Phase order plus registration order reproduce the exact
// intra-cycle sequence of the pre-kernel monolithic Step:
//
//	Deliver   req links, resp links
//	Arbitrate req routers, resp routers
//	Admit     memory sink drain + controller admission
//	MemTick   memory controller
//	Complete  per-core response sink drain + split retirement
//	Inject    response injector, then per-core generation + injection
//	Audit     observability sampling, checked-mode mesh audits
//
// (The old Step drained core sinks before the controller ticked and
// retired splits after; both halves touch disjoint state — the resp
// mesh's sinks versus the request pipeline — so folding them into one
// Complete component after MemTick is order-equivalent.)
//
// Each component's NextWake gives the activity-driven idle-skip its
// soundness: a component only sleeps through cycles its tick provably
// would not change state, and every producer of cross-component input
// wakes the consumer's handle. Nothing here polls a blocked neighbour:
// the mesh components walk only their active sets, the injecting
// components sleep on a backlog they have no credit for until the
// credit's return wakes them, the counters a blocked core's tick would
// have bumped meanwhile are settled in arrears (settle), the admission
// sleeps on a head its controller refused until the controller's room
// event, and the controller sleeps on its own event bound unless a
// queued request could be granted. DESIGN.md "Execution model" has the
// wake table.
func (r *Runner) buildKernel() {
	k := sim.NewKernel()
	r.kern = k

	regMesh := func(name string, m *noc.Mesh) {
		// Deliver empties the link set, so the links sleep until OnWake;
		// the routers stay up while any of them can still act.
		hd := k.Register(&comp{name: name + "-links", phase: sim.PhaseDeliver, tick: m.Deliver,
			next: func(int64) int64 { return sim.Never }})
		ha := k.Register(&comp{name: name + "-routers", phase: sim.PhaseArbitrate, tick: m.Arbitrate,
			next: func(now int64) int64 {
				if m.RoutersAwake() {
					return now + 1
				}
				return sim.Never
			}})
		m.OnWake = func() {
			// The first flit or credit of the cycle went onto a link, after
			// this cycle's Deliver: deliver it next cycle, exactly when the
			// always-ticked mesh would have, and let the routers it lands
			// at arbitrate in that same cycle.
			at := k.Now() + 1
			hd.Wake(at)
			ha.Wake(at)
		}
	}
	regMesh("req", r.reqMesh)
	regMesh("resp", r.respMesh)

	// A channel's three components. Registering every channel before any
	// core keeps the response injectors ahead of the cores' injection in
	// the Inject phase.
	for i := range r.chans {
		c, sfx := &r.chans[i], r.chSuffix(i)
		sink, ctrl := c.sink, c.ctrl
		c.hAdmit = k.Register(&comp{
			name: "mem-admit" + sfx, phase: sim.PhaseAdmit,
			tick: func(now int64) {
				sink.Step(now)
				for {
					p := sink.Peek()
					if p == nil || !ctrl.Offer(p, now) {
						break
					}
					sink.Pop(now)
					// The controller must see the admission this cycle. (A
					// refused Offer changes nothing it would act on, so it
					// needs no wake; the controller remembers the refusal
					// and its room event brings this component back.)
					c.hMem.Wake(now)
				}
			},
			// Awake only to drain: a refused head waits on the room event,
			// an empty ready list on the next arrival.
			next: sinkNext(sink),
		})
		sink.OnArrival = func(now int64) { c.hAdmit.Wake(now) }
		// Room is raised in MemTick, after this cycle's Admit: the head
		// per-cycle polling kept offering was taken one cycle later.
		ctrl.OnRoom(func() { c.hAdmit.Wake(k.Now() + 1) })
		c.hMem = k.Register(&comp{
			name: "memctrl" + sfx, phase: sim.PhaseMemTick,
			tick: ctrl.Tick,
			next: ctrl.NextEvent,
		})
		c.hRespInj = k.Register(&comp{
			name: "resp-inject" + sfx, phase: sim.PhaseInject,
			tick: c.respInj.Step,
			next: func(now int64) int64 {
				// A backlog with no credit waits on the credit, not on the
				// clock; wakeOnCredit brings it.
				if c.respInj.CanLaunch() {
					return now + 1
				}
				return sim.Never
			},
		})
		wakeOnCredit(k, c.respInj, c.hRespInj)
	}

	// A core's two: response completion, then generation and injection.
	for _, c := range r.cores {
		c := c
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
			next: sinkNext(c.sink),
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
		wakeOnCredit(k, c.inj, c.hInject)
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

// wakeOnCredit wakes an injecting component the cycle a credit it can
// use comes back. Credits return in the Deliver phase, ahead of Inject,
// so the woken tick launches in the cycle the every-cycle loop would.
func wakeOnCredit(k *sim.Kernel, inj *noc.Injector, h *sim.Handle) {
	inj.OnCredit = func() { h.Wake(k.Now()) }
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

// sinkNext keeps a sink's drain component awake while its Step can
// still move a flit. Both consumers pop what they can in the same tick,
// so whatever else the sink holds waits on an event that wakes them: a
// flit's arrival, or (mem-admit's refused head) the room event.
func sinkNext(s *noc.Sink) func(now int64) int64 {
	return func(now int64) int64 {
		if s.CanDrain() {
			return now + 1
		}
		return sim.Never
	}
}

// chSuffix names a channel's components and monitors: empty on a
// single-channel run, so those keep the seed's exact names.
func (r *Runner) chSuffix(ch int) string {
	if len(r.chans) == 1 {
		return ""
	}
	return fmt.Sprintf("/ch%d", ch)
}
