package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

const (
	// RegulatorWindow is the regulation window in memory cycles, long
	// enough to amortize a refresh: per-(core, bank) usage clears at every
	// multiple of it.
	RegulatorWindow = 1024
	// regulatorBudget is the beat budget each (core, bank) pair may
	// consume per window; a head that would exceed it waits for the next
	// window.
	regulatorBudget = 256
)

// Regulator is a per-bank bandwidth regulator after Sullivan et al.:
// every (core, bank) pair holds a beat budget per fixed window, charged
// at admission, and a head whose grant would exceed its budget is simply
// ineligible until the window rolls — so no core can squeeze another
// core's share of any bank, regardless of its arrival rate. Eligible
// heads are served round-robin into the shared command pipeline. The
// regulation invariant (charged usage never exceeds the budget in any
// window) is reported through OnAdmit and shadow-audited by checked mode
// (check.RegulatorMonitor). Regulation happens at grant time, not
// admission: the shared queued.Offer enqueues, and a queued request holds
// no budget until granted.
type Regulator struct {
	queued
	// budget is regulatorBudget, raised to the largest request.
	budget int64
	// usage[core][bank] counts beats charged in the current window.
	usage     [][]int64
	curWindow int64
	rotate    int

	// OnAdmit, when set, observes every admission with the facts the
	// regulation invariant is audited from.
	OnAdmit func(core, bank, beats int, now int64)

	// Stats counts scheduler decisions beyond queued's grants.
	Stats struct {
		// Throttled counts grant opportunities lost to regulation: ticks
		// with a head backlogged and every backlogged head over budget.
		// It advances only in ticks where a grant is possible (a head
		// queued and room in the pipeline), and exactly those keep the
		// controller awake every cycle (CanGrant, so NextEvent is now+1):
		// no wake schedule can skip one.
		Throttled int64
	}
}

// NewRegulator builds the regulator over a device for cores requestors
// (a packet maps to slot SrcCore mod cores), with a command pipeline of
// the given depth and page policy. The budget is raised to maxBeats, the
// largest request the workload presents, so a single request always fits
// a fresh window (otherwise it could never become eligible and the
// controller would deadlock).
func NewRegulator(dev *dram.Device, cores, maxBeats, pipeline int, policy PagePolicy, onDone func(Completion)) *Regulator {
	r := &Regulator{
		queued: newQueued(dev, policy, cores, pipeline, onDone),
		budget: max(regulatorBudget, int64(maxBeats)),
		usage:  make([][]int64, cores),
	}
	r.eng.ooo = true
	for i := range r.usage {
		r.usage[i] = make([]int64, r.eng.t.Banks)
	}
	r.pick, r.granted = r.pickCore, r.grant
	return r
}

// Tick implements Controller: roll the regulation window, then grant
// eligible heads round-robin and drive the pipeline.
func (r *Regulator) Tick(now int64) {
	r.rollWindow(now)
	r.queued.Tick(now)
}

// rollWindow clears per-(core,bank) usage at window boundaries. The
// number of windows a run opened is a function of its length and
// RegulatorWindow alone, so the report derives it; counting here would count only the
// boundaries the kernel happened to tick the controller across.
func (r *Regulator) rollWindow(now int64) {
	w := now / RegulatorWindow
	if w == r.curWindow {
		return
	}
	r.curWindow = w
	for _, u := range r.usage {
		for b := range u {
			u[b] = 0
		}
	}
}

// pickCore returns the next backlogged core in round-robin order whose
// head fits its per-bank budget in the current window. Something is
// queued whenever it runs, so finding no such core means every
// backlogged head is over budget.
func (r *Regulator) pickCore() int {
	for i := range r.queues {
		c := (r.rotate + i) % len(r.queues)
		if len(r.queues[c]) == 0 {
			continue
		}
		p := r.queues[c][0]
		if r.usage[c][p.Addr.Bank]+int64(p.Beats) <= r.budget {
			return c
		}
	}
	r.Stats.Throttled++
	return -1
}

// grant charges the request to its (core, bank) budget and moves the
// round-robin pointer past the core.
func (r *Regulator) grant(c int, p *noc.Packet, now int64) {
	r.usage[c][p.Addr.Bank] += int64(p.Beats)
	if r.OnAdmit != nil {
		r.OnAdmit(c, p.Addr.Bank, p.Beats, now)
	}
	r.rotate = (c + 1) % len(r.queues)
}

// Budget returns the per-(core, bank) beat budget in force — the
// regulation monitor audits against it, so the two cannot drift.
func (r *Regulator) Budget() int64 { return r.budget }
