package sim

import (
	"fmt"
	"math"
	"slices"
)

// Phase orders the work of one simulated cycle. The kernel ticks every
// due component of a phase (in registration order) before moving to the
// next, so the system-wide intra-cycle ordering the monolithic runner
// hand-wired is reproduced by construction:
//
//	Network  — each mesh delivers last cycle's flits and credits, then
//	           its routers allocate output channels and forward flits
//	Memory   — each channel admits arrived requests, drives its command
//	           bus and launches read responses
//	Core     — each core's NI retires finished requests, then its traffic
//	           sources generate and it launches new flits
//	Audit    — observers sample the settled cycle (checks of every
//	           visited cycle are the kernel's observer, Observe)
type Phase int

const (
	PhaseNetwork Phase = iota
	PhaseMemory
	PhaseCore
	PhaseAudit

	// NumPhases counts the phases above.
	NumPhases = int(PhaseAudit) + 1
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseNetwork:
		return "network"
	case PhaseMemory:
		return "memory"
	case PhaseCore:
		return "core"
	case PhaseAudit:
		return "audit"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Never is the NextWake value of a component with no self-scheduled
// future work: it sleeps until some other component wakes its Handle.
const Never = int64(math.MaxInt64)

// Component is one clocked unit of the simulation. The kernel calls
// Tick(now) on every cycle the component is awake, then asks NextWake
// for the next cycle it must run.
//
// The wakeup contract: NextWake(now) returns the earliest future cycle
// the component could possibly act, judged from its own state alone —
// or Never when only external input (a flit arrival, a credit return, a
// completion) can make it actable, in which case whoever produces that
// input must Wake the component's Handle. Sleeping must be
// unobservable: a component may only sleep through cycles where its
// Tick would not have changed any state (its own or the counters it
// maintains). The corollary for a counter that a sleeping Tick would
// have bumped every cycle: it may be kept lazily — owed for the slept
// span and paid in one step — provided what the payment depends on is
// constant while asleep, it is paid before anything mutates that, and
// every reader pays first, so no observer ever sees the debt
// (system.Runner.settle is the one instance). Returning now+1 every
// cycle is always correct — idle-skip is then just never applied — so
// components opt into skipping only where idleness is provably a no-op.
type Component interface {
	// Phase declares the intra-cycle slot the component ticks in.
	Phase() Phase
	// Tick performs one cycle of work.
	Tick(now int64)
	// NextWake returns the next cycle Tick must run (> now), or Never.
	NextWake(now int64) int64
}

// Handle is a registered component's scheduling slot. Producers of
// external input hold the consumer's Handle and Wake it.
type Handle struct {
	k    *Kernel
	slot int // index into the kernel's phase-major arrays
}

// Wake schedules the component to tick at cycle at (clamped to the
// current cycle: waking into the past means "as soon as possible", and
// a component whose phase already ran this cycle ticks next cycle).
// Waking an already-earlier-scheduled component is a no-op; Wake only
// ever moves the wake time forward in urgency, never later.
func (h *Handle) Wake(at int64) {
	k := h.k
	if at < k.now {
		at = k.now
	}
	if at >= k.wake[h.slot] {
		return
	}
	k.wake[h.slot] = at
	// A slot the walk has yet to reach is folded into the running minimum
	// when it gets there (and one that ticks this cycle takes a new wake
	// time); only a slot already behind the cursor must lower it here.
	if h.slot < k.cursor && at < k.next {
		k.next = at
	}
}

// WakeAt returns the cycle the component is next due to tick: Never
// while it sleeps on an external Wake.
func (h *Handle) WakeAt() int64 { return h.k.wake[h.slot] }

// Ticks returns how many times the kernel has ticked this component. No
// product path reads it yet: it is kept as a count gate of system's
// proportionality test (one share per mesh, channel and core).
func (h *Handle) Ticks() int64 { return h.k.ticks[h.slot] }

// Kernel owns the simulation clock and the registered components. Step
// advances one cycle in phase order; RunUntil additionally fast-forwards
// the clock over cycles where every component sleeps (idle-skip).
//
// The components live in dense parallel arrays, phase-major and in
// registration order within a phase, so one walk of wake is one cycle's
// tick order. next is the minimum of wake, kept as the walk goes: Step
// carries it across the slots it passes and Wake lowers it for a slot
// behind the cursor, so RunUntil reads the next busy cycle instead of
// scanning for it.
type Kernel struct {
	now      int64
	steps    int64
	comps    []Component
	wake     []int64   // wake[i]: the next cycle comps[i] ticks
	ticks    []int64   // ticks[i]: how often comps[i] has ticked
	handles  []*Handle // handles[i].slot == i
	phaseEnd [NumPhases]int
	next     int64 // min(wake), exact outside Step
	cursor   int   // the slot Step is at; len(comps) outside Step
	idleSkip bool
	observe  func(now int64) // run at the end of every Step, if set
}

// NewKernel returns an empty kernel at cycle 0 with idle-skip enabled.
func NewKernel() *Kernel { return &Kernel{idleSkip: true, next: Never} }

// SetIdleSkip toggles the activity protocol as a whole. Off, the kernel
// ignores every wake time: all registered components tick on every
// cycle, reproducing the monolithic pre-kernel loop — the reference
// behavior the equivalence tests compare against. Because sleeping must
// be unobservable (see Component), results are identical either way;
// only wall-clock time differs. Toggle before running, not mid-run.
func (k *Kernel) SetIdleSkip(on bool) { k.idleSkip = on }

// Observe installs fn to run at the end of every Step with the cycle it
// executed. fn has no wake time, so an observed run visits exactly the
// unobserved run's cycles; it must not change simulation state.
func (k *Kernel) Observe(fn func(now int64)) { k.observe = fn }

// Audit reports kind "kernel-next" if the kept next is not min(wake):
// RunUntil would jump past a due component, or visit a cycle none is
// due. Call it between steps.
func (k *Kernel) Audit(report func(kind, format string, args ...any)) {
	m := Never
	for _, w := range k.wake {
		m = min(m, w)
	}
	if m != k.next {
		report("kernel-next", "kept next wake %d, but the earliest component wake is %d", k.next, m)
	}
}

// Now returns the current cycle.
func (k *Kernel) Now() int64 { return k.now }

// Steps returns how many cycles the kernel has actually executed (phase
// loops run). With idle-skip on this can be far below Now(): the
// difference is the cycles fast-forwarded over.
func (k *Kernel) Steps() int64 { return k.steps }

// Ticks returns how many component ticks the kernel has made: the
// simulator's own work, where Steps counts visited cycles. A pure
// function of the registered components and their wake protocol. No
// product path reads it yet: it is kept as the count gate of system's
// proportionality test.
func (k *Kernel) Ticks() int64 {
	var n int64
	for _, t := range k.ticks {
		n += t
	}
	return n
}

// Register adds components, each initially awake at the current cycle,
// and returns their handles in argument order, drawn from one slab.
// Registration order is tick order within a phase and must therefore be
// deterministic. Each component is inserted at the end of its phase's
// run of slots; the handles behind it learn their new slots. Register
// between steps, not from inside a Tick.
func (k *Kernel) Register(cs ...Component) []Handle {
	hs := make([]Handle, len(cs))
	k.comps = slices.Grow(k.comps, len(cs))
	k.wake = slices.Grow(k.wake, len(cs))
	k.ticks = slices.Grow(k.ticks, len(cs))
	k.handles = slices.Grow(k.handles, len(cs))
	for i, c := range cs {
		p := c.Phase()
		if p < 0 || int(p) >= NumPhases {
			panic(fmt.Sprintf("sim: component %T has invalid phase %d", c, p))
		}
		at := k.phaseEnd[p]
		hs[i] = Handle{k: k, slot: at}
		k.comps = slices.Insert(k.comps, at, c)
		k.wake = slices.Insert(k.wake, at, k.now)
		k.ticks = slices.Insert(k.ticks, at, 0)
		k.handles = slices.Insert(k.handles, at, &hs[i])
		for _, moved := range k.handles[at+1:] {
			moved.slot++
		}
		for q := int(p); q < NumPhases; q++ {
			k.phaseEnd[q]++
		}
	}
	k.cursor = len(k.comps)
	if k.now < k.next {
		k.next = k.now
	}
	return hs
}

// Step advances exactly one cycle: every awake component ticks, phase by
// phase, then the clock increments. A component woken for the current
// cycle during an earlier phase still ticks this cycle; one woken after
// its own phase ran ticks next cycle. With idle-skip off every
// component ticks regardless of its wake time.
func (k *Kernel) Step() {
	now := k.now
	k.next = Never
	wake := k.wake
	for i := range wake {
		if w := wake[i]; w > now && k.idleSkip {
			if w < k.next {
				k.next = w
			}
			continue
		}
		k.cursor = i
		k.ticks[i]++
		c := k.comps[i]
		c.Tick(now)
		w := c.NextWake(now)
		if w <= now {
			w = now + 1
		}
		wake[i] = w
		if w < k.next {
			k.next = w
		}
	}
	k.cursor = len(wake)
	k.now = now + 1
	k.steps++
	if k.observe != nil {
		k.observe(now)
	}
}

// RunUntil advances the clock to cycle end (exclusive of further work:
// afterwards Now() == end and no component has ticked at end). With
// idle-skip on, stretches where every component sleeps are crossed in
// one assignment instead of being ticked through.
func (k *Kernel) RunUntil(end int64) {
	for k.now < end {
		if k.idleSkip && k.next > k.now {
			if k.next >= end {
				k.now = end
				return
			}
			k.now = k.next
		}
		k.Step()
	}
}
