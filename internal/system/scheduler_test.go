package system

import (
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
)

// TestSchedulerCleanCheckedRuns: every scheduler in the zoo completes a
// checked run on representative designs with zero violations —
// for the DPQ that means every completion met its analytic WCET
// deadline, for the regulator that every grant fit its window budget.
func TestSchedulerCleanCheckedRuns(t *testing.T) {
	for _, sched := range memctrl.Schedulers() {
		if sched == memctrl.SchedDefault {
			continue
		}
		for _, d := range []Design{Conv, GSSSAGM} {
			res, err := Run(Config{
				App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
				Scheduler: sched, Cycles: 12_000, PriorityDemand: true,
				Checked: true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", sched, d, err)
			}
			if n := len(res.Obs.Violations); n != 0 {
				t.Fatalf("%s/%s: %d violations", sched, d, n)
			}
			if res.Completed == 0 {
				t.Errorf("%s/%s: no requests completed", sched, d)
			}
			if res.Obs.Scheduler != sched.String() {
				t.Errorf("%s/%s: report scheduler %q", sched, d, res.Obs.Scheduler)
			}
			ss := res.Obs.Memory.Scheduler
			if ss == nil || ss.Name != sched.String() {
				t.Fatalf("%s/%s: report lacks scheduler stats: %+v", sched, d, ss)
			}
			if ss.Grants == 0 {
				t.Errorf("%s/%s: scheduler stats show zero grants", sched, d)
			}
			if sched == memctrl.SchedDPQ && ss.WCETChecked == 0 {
				t.Errorf("%s: checked run verified zero WCET deadlines", d)
			}
			if err := res.Obs.Validate(); err != nil {
				t.Errorf("%s/%s: report invalid: %v", sched, d, err)
			}
		}
	}
}

// TestSchedulerDefaultReportUnchanged: the default scheduler must not
// grow any zoo fields — its report stays shaped exactly as the seed's.
func TestSchedulerDefaultReportUnchanged(t *testing.T) {
	res, err := Run(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM,
		Cycles: 8_000, PriorityDemand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.Scheduler != "" {
		t.Errorf("default run reports scheduler %q", res.Obs.Scheduler)
	}
	if res.Obs.Memory.Scheduler != nil {
		t.Errorf("default run carries scheduler stats %+v", res.Obs.Memory.Scheduler)
	}
}

// TestSchedulerDeterminism: each zoo member keeps the repo-wide
// bit-for-bit reproducibility guarantee.
func TestSchedulerDeterminism(t *testing.T) {
	for _, sched := range memctrl.Schedulers() {
		cfg := Config{
			App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS,
			Scheduler: sched, Cycles: 10_000, PriorityDemand: true,
		}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical runs diverged", sched)
		}
	}
}

// TestSchedulerRejectsUnknown: construction validates the scheduler id.
func TestSchedulerRejectsUnknown(t *testing.T) {
	_, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Scheduler: memctrl.Scheduler(99),
	})
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestDPQWCETMutationDetected is the zoo's fault-injection proof: a
// legality-preserving slow-CAS fault (every CAS delayed far beyond the
// analytic service time, yet never violating a JEDEC constraint) must
// slip past the shadow DRAM protocol monitor and be caught by the WCET
// bound monitor alone.
func TestDPQWCETMutationDetected(t *testing.T) {
	r, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: Conv,
		Scheduler: memctrl.SchedDPQ, Cycles: 30_000, PriorityDemand: true,
		Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.chans[0].dev.InjectFault(dram.FaultSlowCAS)
	for i := int64(0); i < 30_000; i++ {
		r.kern.Step()
	}
	res := r.Finish()
	wcet, dramViol := 0, 0
	for _, v := range res.Obs.Violations {
		switch {
		case v.Kind == "wcet-bound":
			wcet++
		case v.Component == "dram":
			dramViol++
		}
	}
	if wcet == 0 {
		t.Fatalf("WCET monitor missed the injected slow-CAS fault; violations: %v",
			res.Obs.Violations)
	}
	if dramViol != 0 {
		t.Errorf("slow-CAS fault is legality-preserving but the DRAM monitor fired %d times",
			dramViol)
	}
}

// TestRegulatorMutationDetected: an admission stream that exceeds the
// window budget must be flagged by the wired regulation monitor. The
// regulator's OnAdmit hook is the monitor's Admit after installChecks,
// so driving an over-budget grant sequence through it proves the
// system wiring turns a regulation breach into a reported violation
// (the behavioural gate-off mutation is covered at the memctrl/check
// layer, where the gate can be disabled before monitor construction).
func TestRegulatorMutationDetected(t *testing.T) {
	r, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: Conv,
		Scheduler: memctrl.SchedRegulated, Cycles: 1_000,
		Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, ok := r.chans[0].ctrl.(*memctrl.Regulator)
	if !ok {
		t.Fatalf("regulated config built %T", r.chans[0].ctrl)
	}
	if reg.OnAdmit == nil {
		t.Fatal("checked mode left the regulator's admission hook unwired")
	}
	budget := reg.Budget()
	reg.OnAdmit(0, 0, int(budget), 10)
	reg.OnAdmit(0, 0, 1, 11)
	for i := int64(0); i < 1_000; i++ {
		r.kern.Step()
	}
	res := r.Finish()
	found := false
	for _, v := range res.Obs.Violations {
		if v.Kind == "regulation-window" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("regulation monitor missed an over-budget admission; violations: %v",
			res.Obs.Violations)
	}
}

// TestSchedulerInjectFaultKnob: Config.Fault arms a device fault at
// construction — the CLI-level exit-code test rides on it (aanoc-sim
// sets it from AANOC_INJECT_FAULT), so its plumbing is pinned here,
// along with the environment no longer reaching system.New on its own.
func TestSchedulerInjectFaultKnob(t *testing.T) {
	cfg := Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: Conv,
		Scheduler: memctrl.SchedDPQ, Cycles: 20_000, PriorityDemand: true,
		Checked: true,
	}
	t.Setenv("AANOC_INJECT_FAULT", "slow-cas")
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Obs.Violations) != 0 {
		t.Fatalf("the environment variable alone faulted the run: %v", clean.Obs.Violations)
	}
	cfg.Fault = dram.FaultSlowCAS
	faulted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted.Obs.Violations) == 0 {
		t.Fatal("injected fault produced no violations")
	}
	if _, err := dram.ParseFault("nonsense"); err == nil {
		t.Fatal("unknown fault name accepted")
	}
	if f, err := dram.ParseFault("slow-cas"); err != nil || f != dram.FaultSlowCAS {
		t.Fatalf("ParseFault(slow-cas) = %v, %v", f, err)
	}
}
