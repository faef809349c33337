package system

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/check"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
)

// TestCheckedCleanAcrossDesigns runs every design point under the full
// invariant layer: any protocol or conservation breach is listed with
// its cycle, and a clean run must report Checked with an empty
// violation list.
func TestCheckedCleanAcrossDesigns(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			res, err := Run(Config{
				App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
				Cycles: 8_000, Seed: 5, PriorityDemand: true,
				Checked: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Obs.Checked {
				t.Error("report of a checked run not marked Checked")
			}
			if len(res.Obs.Violations) != 0 {
				t.Errorf("violations on a clean run: %v", res.Obs.Violations)
			}
			if err := res.Obs.Validate(); err != nil {
				t.Errorf("checked report invalid: %v", err)
			}
		})
	}
}

// TestCheckedDoesNotPerturbResults: the monitors only observe — a
// checked run must produce exactly the measurements of an unchecked run
// of the same configuration.
func TestCheckedDoesNotPerturbResults(t *testing.T) {
	base := Config{
		App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGMSTI,
		Cycles: 10_000, Seed: 21, PriorityDemand: true,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	chk := base
	chk.Checked = true
	checked, err := Run(chk)
	if err != nil {
		t.Fatal(err)
	}
	// The observability reports legitimately differ in the Checked flag;
	// everything else must match byte for byte.
	plain.Obs.Checked, checked.Obs.Checked = false, false
	if !reflect.DeepEqual(plain, checked) {
		t.Error("checked run diverged from unchecked run of the same config")
	}
}

// TestCheckedPropertyRandomConfigs drives randomized configurations
// through checked mode: whatever the knob combination, the
// invariants must hold. The rand seed is fixed, so the sampled grid is
// deterministic.
func TestCheckedPropertyRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	apps := appmodel.Apps()
	gens := dram.Generations()
	designs := Designs()
	for i := 0; i < 12; i++ {
		cfg := Config{
			App:       apps[rng.Intn(len(apps))],
			Gen:       gens[rng.Intn(len(gens))],
			Subarrays: []int{0, 0, 2, 4}[rng.Intn(4)],
			Design:    designs[rng.Intn(len(designs))],
			PCT:       1 + rng.Intn(5),
			Cycles:    2_000 + int64(rng.Intn(2_000)),
			Seed:      rng.Uint64(),
			Checked:   true,
		}
		_ = rng.Intn(2) // the draw of BufFlits, now a constant, so the later fields keep their values
		cfg.VirtualChannels = 1 + rng.Intn(2)
		cfg.PriorityDemand = rng.Intn(2) == 0
		cfg.TagEveryRequest = rng.Intn(2) == 0
		cfg.AdaptiveRouting = rng.Intn(2) == 0
		cfg.SampleEvery = int64(rng.Intn(2)) * 500
		cfg.Scheduler = memctrl.Scheduler(rng.Intn(4))
		t.Run(cfg.Design.String()+"/"+cfg.App.Name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Obs.Violations) != 0 {
				t.Errorf("violations: %v", res.Obs.Violations)
			}
		})
	}
}

// TestCheckedMutationCatchesSkippedTRCD is the mutation smoke test: arm
// the device fault that skips the tRCD legality check, run a normal
// workload, and require the conformance monitor to flag the early CAS
// commands the broken fast path now lets through. If this test fails,
// checked mode is vacuous.
func TestCheckedMutationCatchesSkippedTRCD(t *testing.T) {
	r, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS,
		Cycles: 6_000, Seed: 3, PriorityDemand: true,
		Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.chans[0].dev.InjectFault(dram.FaultSkipTRCD)
	for i := int64(0); i < 6_000; i++ {
		r.kern.Step()
	}
	res := r.Finish()
	found := false
	for _, v := range res.Obs.Violations {
		if v.Component == "dram" && v.Kind == "tRCD" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("monitor missed the injected tRCD bug; violations: %v", res.Obs.Violations)
	}
}

// TestCheckReportViolationOrderIsStable: with out-of-bound links in both
// meshes (a negative grant count, which only the live cross-check
// reads), the sequence of violations — and so which ones survive the
// checker's limit — must not depend on map iteration order. The request
// mesh reports first, then the response mesh, every time.
func TestCheckReportViolationOrderIsStable(t *testing.T) {
	r, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS, Cycles: 500, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	r.RunTo(500)
	res := r.Finish()
	rep := res.Obs
	if len(rep.Violations) != 0 {
		t.Fatalf("clean run violated: %v", rep.Violations)
	}
	for _, links := range [][]obs.LinkStat{rep.Network.Request.Links, rep.Network.Response.Links} {
		for i := range links {
			links[i].Grants = -1
		}
	}
	var first []obs.Violation
	for i := 0; i < 64; i++ {
		// A limit below one mesh's link count: a response-first walk would
		// fill it with different violations, not merely reorder them.
		r.chk = &check.Checker{Limit: 8}
		r.checkReport(rep, res.Device)
		got := r.chk.Violations()
		if i == 0 {
			first = got
			if len(first) != 8 || !strings.HasPrefix(first[0].Detail, "request mesh") {
				t.Fatalf("fabricated report produced %v", first)
			}
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("repetition %d: violations %v, first run had %v", i, got, first)
		}
	}
}

// TestCheckReportHoldsReportToValidate: checked mode holds the report to
// obs.Report.Validate's whole rule list, not a copy of some of it. A
// report doctored to break a rule only Validate has — a sample past the
// run's end — is flagged, once, as report-invalid.
func TestCheckReportHoldsReportToValidate(t *testing.T) {
	r, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM,
		Cycles: 2_000, SampleEvery: 500, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RunTo(2_000)
	res := r.Finish()
	rep := res.Obs
	if len(rep.Violations) != 0 || len(rep.Samples) == 0 {
		t.Fatalf("clean sampled run: %d samples, violations %v", len(rep.Samples), rep.Violations)
	}
	rep.Samples[len(rep.Samples)-1].Cycle = rep.Cycles + 1
	r.chk = &check.Checker{}
	r.checkReport(rep, res.Device)
	if vs := r.chk.Violations(); len(vs) != 1 || vs[0].Kind != "report-invalid" ||
		!strings.Contains(vs[0].Detail, "outside run") {
		t.Fatalf("a sample past the run's end reported as %v, want one report-invalid", vs)
	}
}
