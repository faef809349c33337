package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// RegulatorConfig sizes the per-bank bandwidth regulator.
type RegulatorConfig struct {
	// Cores is the number of regulated requestors; a packet maps to
	// regulator slot SrcCore mod Cores.
	Cores int
	// QueueDepth is the per-core request buffer depth.
	QueueDepth int
	// Window is the regulation window in memory cycles; per-(core,bank)
	// usage clears at every multiple of it.
	Window int64
	// Budget is the beat budget each (core, bank) pair may consume per
	// window. A head that would exceed it waits for the next window. The
	// constructor clamps Budget to at least MinBudget so a single request
	// can always fit in a fresh window (otherwise it could never become
	// eligible and the controller would deadlock).
	Budget int64
	// MinBudget is the largest single-request beat count the workload can
	// present (the system computes it from the resolved app model).
	MinBudget int64
	// PipelineDepth is the command-pipeline window behind the regulator.
	PipelineDepth int
	// Policy is the page policy of the command pipeline.
	Policy PagePolicy

	// DisableGate bypasses the eligibility check while still charging
	// usage — admissions can then exceed the budget. Test-only: it exists
	// so the mutation harness can prove the checked-mode regulation
	// monitor detects a broken regulator.
	DisableGate bool
}

// DefaultRegulatorConfig mirrors the MemMax buffer sizing with a
// regulation window long enough to amortize a refresh.
func DefaultRegulatorConfig(cores int) RegulatorConfig {
	return RegulatorConfig{
		Cores: cores, QueueDepth: 32,
		Window: 1024, Budget: 256, MinBudget: 1,
		PipelineDepth: 4, Policy: OpenPage,
	}
}

// Regulator is a per-bank bandwidth regulator after Sullivan et al.:
// every (core, bank) pair holds a beat budget per fixed window, charged
// at admission, and a head whose grant would exceed its budget is simply
// ineligible until the window rolls — so no core can squeeze another
// core's share of any bank, regardless of its arrival rate. Eligible
// heads are served round-robin into the shared command pipeline. The
// regulation invariant (charged usage never exceeds the budget in any
// window) is reported through OnAdmit and shadow-audited by checked mode
// (check.RegulatorMonitor).
type Regulator struct {
	queued
	cfg RegulatorConfig
	// usage[core][bank] counts beats charged in the current window.
	usage     [][]int64
	curWindow int64
	rotate    int

	// OnAdmit, when set, observes every admission with the facts the
	// regulation invariant is audited from.
	OnAdmit func(core, bank, beats int, now int64)

	// Stats counts scheduler decisions for the observability report.
	Stats struct {
		Grants int64
		// Throttled counts grant opportunities lost to regulation: ticks
		// with a head backlogged and every backlogged head over budget.
		// It advances only in ticks where a grant is possible (a head
		// queued and room in the pipeline), and exactly those keep the
		// controller awake every cycle (CanGrant, so NextEvent is now+1):
		// no wake schedule can skip one.
		Throttled int64
	}
}

// NewRegulator builds the regulator over a device. Budget is clamped to
// MinBudget (and both to 1) so admission can always make progress.
func NewRegulator(dev *dram.Device, cfg RegulatorConfig, onDone func(Completion)) *Regulator {
	atLeastOne(&cfg.Cores, &cfg.QueueDepth, &cfg.PipelineDepth)
	atLeastOne(&cfg.Window, &cfg.MinBudget)
	cfg.Budget = max(cfg.Budget, cfg.MinBudget)
	r := &Regulator{
		queued: newQueued(dev, cfg.Policy, cfg.Cores, cfg.QueueDepth, cfg.PipelineDepth, onDone),
		cfg:    cfg,
		usage:  make([][]int64, cfg.Cores),
	}
	r.eng.ooo = true
	for i := range r.usage {
		r.usage[i] = make([]int64, r.eng.t.Banks)
	}
	r.pick, r.granted = r.pickCore, r.grant
	return r
}

// Offer implements Controller: enqueue into the core's FIFO. Regulation
// happens at grant time, not admission — a queued request holds no
// budget until granted.
func (r *Regulator) Offer(p *noc.Packet, now int64) bool {
	if !r.Accepts(p) {
		return false
	}
	r.enqueue(r.slotOf(p), p)
	return true
}

// Tick implements Controller: roll the regulation window, then grant
// eligible heads round-robin and drive the pipeline.
func (r *Regulator) Tick(now int64) {
	r.rollWindow(now)
	r.queued.Tick(now)
}

// rollWindow clears per-(core,bank) usage at window boundaries. The
// number of windows a run opened is a function of its length and Window
// alone, so the report derives it; counting here would count only the
// boundaries the kernel happened to tick the controller across.
func (r *Regulator) rollWindow(now int64) {
	w := now / r.cfg.Window
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
// head fits its per-bank budget in the current window (DisableGate skips
// the budget test). Something is queued whenever it runs, so finding no
// such core means every backlogged head is over budget.
func (r *Regulator) pickCore() int {
	for i := 0; i < r.cfg.Cores; i++ {
		c := (r.rotate + i) % r.cfg.Cores
		if len(r.queues[c]) == 0 {
			continue
		}
		p := r.queues[c][0]
		if r.cfg.DisableGate || r.usage[c][p.Addr.Bank]+int64(p.Beats) <= r.cfg.Budget {
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
	r.Stats.Grants++
	r.rotate = (c + 1) % r.cfg.Cores
}

// Config returns the resolved (clamped) configuration — the regulation
// monitor derives its window and budget from it, so the two cannot
// drift.
func (r *Regulator) Config() RegulatorConfig { return r.cfg }
