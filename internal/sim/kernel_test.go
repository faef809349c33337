package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// probe is a test component recording every Tick it receives.
type probe struct {
	name  string
	phase Phase
	next  func(now int64) int64
	log   *[]string
	ticks []int64
}

func (p *probe) Phase() Phase { return p.phase }
func (p *probe) Tick(now int64) {
	p.ticks = append(p.ticks, now)
	*p.log = append(*p.log, fmt.Sprintf("%d:%s", now, p.name))
}
func (p *probe) NextWake(now int64) int64 {
	if p.next != nil {
		return p.next(now)
	}
	return now + 1
}

// TestKernelPhaseOrdering registers a probe in every phase (two in one
// phase to pin registration order) and asserts the per-cycle call
// sequence matches the documented Network..Audit order.
func TestKernelPhaseOrdering(t *testing.T) {
	k := NewKernel()
	var log []string
	names := []string{}
	for ph := Phase(0); int(ph) < NumPhases; ph++ {
		k.Register(&probe{name: ph.String(), phase: ph, log: &log})
		names = append(names, ph.String())
	}
	// A second Network component, registered after every first-wave
	// component, must still tick right after the first Network probe.
	k.Register(&probe{name: "network2", phase: PhaseNetwork, log: &log})

	k.RunUntil(3)

	var want []string
	for cyc := int64(0); cyc < 3; cyc++ {
		for _, n := range names {
			want = append(want, fmt.Sprintf("%d:%s", cyc, n))
			if n == PhaseNetwork.String() {
				want = append(want, fmt.Sprintf("%d:network2", cyc))
			}
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("call sequence:\n got %v\nwant %v", log, want)
	}
	if k.Now() != 3 {
		t.Fatalf("Now() = %d, want 3", k.Now())
	}
}

// TestKernelIdleSkip checks that a self-scheduling component ticks on
// exactly the cycles it asked for, and that the clock lands on the run
// boundary even when the last wake is beyond it.
func TestKernelIdleSkip(t *testing.T) {
	var log []string
	k := NewKernel()
	p := &probe{name: "p", phase: PhaseCore, log: &log,
		next: func(now int64) int64 { return now + 5 }}
	k.Register(p)
	k.RunUntil(12)

	if want := []int64{0, 5, 10}; !reflect.DeepEqual(p.ticks, want) {
		t.Fatalf("ticks = %v, want %v", p.ticks, want)
	}
	if k.Now() != 12 {
		t.Fatalf("Now() = %d, want 12", k.Now())
	}
	// Steps counts the cycles visited, Ticks the component ticks made in
	// them: one component, three visits.
	if k.Steps() != 3 || k.Ticks() != 3 {
		t.Fatalf("Steps() = %d, Ticks() = %d, want 3 and 3", k.Steps(), k.Ticks())
	}
}

// TestKernelIdleSkipOffEquivalence runs the same component set with and
// without idle-skip. With skip off every component ticks on every cycle
// (the pre-kernel reference loop); with skip on only the self-declared
// wake cycles tick. A component honouring the sleeping-is-unobservable
// contract acts identically either way — the kernel invariant the
// full-system equivalence test leans on.
func TestKernelIdleSkipOffEquivalence(t *testing.T) {
	// worker acts (mutates state) only on cycles that are a multiple of
	// its stride, whether or not it is ticked on other cycles.
	type worker struct {
		probe
		acted []int64
	}
	run := func(skip bool) *worker {
		var log []string
		w := &worker{}
		w.name, w.phase, w.log = "w", PhaseMemory, &log
		w.next = func(now int64) int64 { return (now/7 + 1) * 7 }
		k := NewKernel()
		k.SetIdleSkip(skip)
		k.Register(&tickFunc{w, func(now int64) {
			w.Tick(now)
			if now%7 == 0 {
				w.acted = append(w.acted, now)
			}
		}})
		k.RunUntil(60)
		return w
	}
	on, off := run(true), run(false)
	if !reflect.DeepEqual(on.acted, off.acted) {
		t.Fatalf("idle-skip on acted %v != off %v", on.acted, off.acted)
	}
	// Skip on ticks only the declared wake cycles; off ticks all 60.
	if want := []int64{0, 7, 14, 21, 28, 35, 42, 49, 56}; !reflect.DeepEqual(on.ticks, want) {
		t.Fatalf("skip-on ticks = %v, want %v", on.ticks, want)
	}
	if len(off.ticks) != 60 {
		t.Fatalf("skip-off ticked %d cycles, want all 60", len(off.ticks))
	}
}

// tickFunc overrides a component's Tick, keeping its other methods.
type tickFunc struct {
	Component
	tick func(now int64)
}

func (t *tickFunc) Tick(now int64) { t.tick(now) }

// TestKernelWakeSameCycle checks the cross-phase wake contract: a wake
// for the current cycle issued from an earlier phase ticks the target
// this cycle; one issued after the target's phase ran lands next cycle.
func TestKernelWakeSameCycle(t *testing.T) {
	var log []string
	k := NewKernel()
	sleeper := &probe{name: "sleeper", phase: PhaseCore, log: &log,
		next: func(int64) int64 { return Never }}
	hs := &k.Register(sleeper)[0]
	late := &probe{name: "late", phase: PhaseNetwork, log: &log,
		next: func(int64) int64 { return Never }}
	hl := &k.Register(late)[0]
	k.Register(&probe{name: "waker", phase: PhaseMemory, log: &log,
		next: func(now int64) int64 {
			if now == 2 {
				hs.Wake(now) // Core runs later this cycle
				hl.Wake(now) // Network already ran: clamps to next cycle
			}
			return now + 1
		}})
	k.RunUntil(4)

	if want := []int64{0, 2}; !reflect.DeepEqual(sleeper.ticks, want) {
		t.Fatalf("same-cycle wake ticks = %v, want %v", sleeper.ticks, want)
	}
	// late ticked at 0 (initial), then its Wake(2) could only take
	// effect at cycle 3 — its phase had already run at cycle 2.
	if want := []int64{0, 3}; !reflect.DeepEqual(late.ticks, want) {
		t.Fatalf("past-phase wake ticks = %v, want %v", late.ticks, want)
	}
}

// TestKernelInvalidPhase ensures registration rejects out-of-range
// phases instead of silently dropping the component.
func TestKernelInvalidPhase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted an invalid phase")
		}
	}()
	var log []string
	NewKernel().Register(&probe{name: "bad", phase: Phase(99), log: &log})
}

// TestKernelHandlesSurviveInsertion: registering into an earlier phase
// shifts the slots behind it; a handle taken before the shift must still
// wake, and count the ticks of, its own component.
func TestKernelHandlesSurviveInsertion(t *testing.T) {
	var log []string
	k := NewKernel()
	never := func(int64) int64 { return Never }
	late := &probe{name: "late", phase: PhaseCore, log: &log, next: never}
	hLate := &k.Register(late)[0]
	early := &probe{name: "early", phase: PhaseNetwork, log: &log, next: never}
	hEarly := &k.Register(early)[0]
	k.RunUntil(10) // both tick once at 0, then sleep
	hLate.Wake(20)
	if hLate.WakeAt() != 20 || hEarly.WakeAt() != Never {
		t.Fatalf("WakeAt: late %d, early %d, want 20 and Never", hLate.WakeAt(), hEarly.WakeAt())
	}
	k.RunUntil(30)
	if want := []int64{0, 20}; !reflect.DeepEqual(late.ticks, want) {
		t.Fatalf("late ticks = %v, want %v", late.ticks, want)
	}
	if len(early.ticks) != 1 || hLate.Ticks() != 2 || hEarly.Ticks() != 1 || k.Ticks() != 3 {
		t.Fatalf("early ticked %v; Ticks: late %d, early %d, kernel %d", early.ticks, hLate.Ticks(), hEarly.Ticks(), k.Ticks())
	}
}

// TestKernelNextWakeIsExact: the running minimum RunUntil reads must
// equal the true earliest wake after every step, whichever side of the
// cursor a Wake lands on — a stale-low value would visit a cycle in
// which nothing ticks, a stale-high one would skip a tick. The waker
// (Memory phase) wakes a Core component ahead of the cursor for the
// current cycle, a Network component behind it, and the first again for
// a later cycle.
func TestKernelNextWakeIsExact(t *testing.T) {
	var log []string
	k := NewKernel()
	never := func(int64) int64 { return Never }
	behind := &probe{name: "behind", phase: PhaseNetwork, log: &log, next: never}
	ahead := &probe{name: "ahead", phase: PhaseCore, log: &log, next: never}
	hb, ha := &k.Register(behind)[0], &k.Register(ahead)[0]
	k.Register(&probe{name: "waker", phase: PhaseMemory, log: &log,
		next: func(now int64) int64 {
			switch now {
			case 0:
				return 10
			case 10:
				ha.Wake(now) // ticks this cycle, then sleeps: leaves no wake behind
				return 20
			case 20:
				hb.Wake(now) // its phase ran: ticks at 21
				return 30
			case 30:
				ha.Wake(35)
				return 40
			}
			return Never
		}})
	k.RunUntil(100)
	if want := []int64{0, 21}; !reflect.DeepEqual(behind.ticks, want) {
		t.Fatalf("behind ticks = %v, want %v", behind.ticks, want)
	}
	if want := []int64{0, 10, 35}; !reflect.DeepEqual(ahead.ticks, want) {
		t.Fatalf("ahead ticks = %v, want %v", ahead.ticks, want)
	}
	// Visited cycles: 0, 10, 20, 21, 30, 35, 40 — and not 11, which a
	// minimum lowered by the same-cycle wake of a slot yet to tick adds.
	if k.Steps() != 7 {
		t.Fatalf("Steps() = %d, want 7", k.Steps())
	}
}

// TestKernelObserverKeepsTheSchedule: an observer sees every visited
// cycle, with the cycle it executed, and holds the clock on none — the
// observed run visits exactly the unobserved run's cycles, and the kept
// next wake audits clean after each.
func TestKernelObserverKeepsTheSchedule(t *testing.T) {
	run := func(observe bool) (*Kernel, []int64) {
		var log []string
		k := NewKernel()
		k.Register(&probe{name: "p", phase: PhaseCore, log: &log,
			next: func(now int64) int64 { return now + 5 }})
		var seen []int64
		if observe {
			k.Observe(func(now int64) {
				seen = append(seen, now)
				k.Audit(func(kind, format string, args ...any) {
					t.Errorf("cycle %d: %s: "+format, append([]any{now, kind}, args...)...)
				})
			})
		}
		k.RunUntil(12)
		return k, seen
	}
	plain, _ := run(false)
	observed, seen := run(true)
	if want := []int64{0, 5, 10}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("observed cycles %v, want %v", seen, want)
	}
	if observed.Steps() != plain.Steps() || observed.Now() != plain.Now() {
		t.Fatalf("observed run: %d steps to cycle %d; unobserved: %d to %d",
			observed.Steps(), observed.Now(), plain.Steps(), plain.Now())
	}
}

// TestKernelAuditCatchesUnloweredWake: a Wake that sets a slot behind
// the cursor without lowering the kept next — Handle.Wake with its
// running-minimum rule dropped — lets RunUntil jump past the woken
// component. The self-audit must report it at the cycle it happened;
// the same wake through the real Handle.Wake must audit clean.
func TestKernelAuditCatchesUnloweredWake(t *testing.T) {
	for name, wake := range map[string]func(h *Handle, at int64){
		"handle":    (*Handle).Wake,
		"unlowered": func(h *Handle, at int64) { h.k.wake[h.slot] = at },
	} {
		var log []string
		k := NewKernel()
		never := func(int64) int64 { return Never }
		behind := &probe{name: "behind", phase: PhaseNetwork, log: &log, next: never}
		hb := &k.Register(behind)[0]
		k.Register(&probe{name: "waker", phase: PhaseMemory, log: &log,
			next: func(now int64) int64 {
				if now == 0 {
					return 10
				}
				if now == 10 {
					wake(hb, now+1)
				}
				return Never
			}})
		var got []string
		k.Observe(func(now int64) {
			k.Audit(func(kind, format string, args ...any) {
				got = append(got, fmt.Sprintf("%d %s", now, kind))
			})
		})
		k.RunUntil(20)
		switch name {
		case "handle":
			if got != nil || !reflect.DeepEqual(behind.ticks, []int64{0, 11}) {
				t.Errorf("real wake: audit reported %v, behind ticked %v", got, behind.ticks)
			}
		case "unlowered":
			if !reflect.DeepEqual(got, []string{"10 kernel-next"}) || len(behind.ticks) != 1 {
				t.Errorf("unlowered wake: audit reported %v, want one kernel-next at cycle 10; behind ticked %v", got, behind.ticks)
			}
		}
	}
}
