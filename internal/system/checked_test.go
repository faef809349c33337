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
	designs := Designs()
	for i := 0; i < 12; i++ {
		cfg := Config{
			App:       apps[rng.Intn(len(apps))],
			Gen:       dram.DDR1 + dram.Generation(rng.Intn(int(dram.LPDDR3-dram.DDR1+1))),
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
// mesh reports first, then the response mesh, every time. ddtv4's 6x6
// request mesh has more links than the checker records, so a
// response-first walk would record different violations, not merely
// reorder them.
func TestCheckReportViolationOrderIsStable(t *testing.T) {
	r, err := New(Config{App: appmodel.QuadDTV(), Gen: dram.DDR2, Design: GSS, Cycles: 500, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	r.RunTo(500)
	rep := r.Finish().Obs
	if len(rep.Violations) != 0 {
		t.Fatalf("clean run violated: %v", rep.Violations)
	}
	req, resp := rep.Network.Request.Links, rep.Network.Response.Links
	if len(req) <= check.DefaultLimit {
		t.Fatalf("request mesh has %d links, want more than the checker's limit %d", len(req), check.DefaultLimit)
	}
	for _, links := range [][]obs.LinkStat{req, resp} {
		for i := range links {
			links[i].Grants = -1
		}
	}
	var first []obs.Violation
	for i := 0; i < 64; i++ {
		r.chk = &check.Checker{}
		r.checkReport(rep)
		got := r.chk.Violations()
		if i == 0 {
			first = got
			if len(first) != check.DefaultLimit+1 || !strings.HasPrefix(first[0].Detail, "request mesh") ||
				!strings.HasPrefix(first[check.DefaultLimit-1].Detail, "request mesh") ||
				obs.TotalViolations(first) != int64(len(req)+len(resp)) {
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
	r.checkReport(rep)
	if vs := r.chk.Violations(); len(vs) != 1 || vs[0].Kind != "report-invalid" ||
		!strings.Contains(vs[0].Detail, "outside run") {
		t.Fatalf("a sample past the run's end reported as %v, want one report-invalid", vs)
	}
}

// TestFinalChecksCatchLedgerDrift is the runner's rows of the fault
// matrix: each edits one of the run's ledgers — the slot table's live
// count, a core's generated count, a record's pending splits, a channel's
// completed splits, a record's parent ID — and asserts exactly the kinds
// the end-of-run accounting (or, for the parent ID, the split
// completions after it) reports, and the first one's detail.
func TestFinalChecksCatchLedgerDrift(t *testing.T) {
	first := func(r *Runner) *logical {
		var l *logical
		r.reqs.each(func(x *logical) {
			if l == nil {
				l = x
			}
		})
		if l == nil {
			t.Fatal("no request is outstanding: the fault would not be exercised")
		}
		return l
	}
	for _, tc := range []struct {
		name   string
		at     int64 // the cycle the ledger is edited at; the run ends at 2,000
		doctor func(r *Runner)
		want   []string
		detail string
	}{
		{"slot-table-live", 2_000, func(r *Runner) { r.reqs.live++ },
			[]string{"request-accounting"}, "slot table counts"},
		{"core-ledger", 2_000, func(r *Runner) { r.cores[0].generated++ },
			[]string{"request-accounting"}, "core " + appmodel.BluRay().Cores[0].Name},
		{"pending-splits", 2_000, func(r *Runner) { first(r).pending = 0 },
			[]string{"split-accounting"}, "pending splits"},
		{"channel-completions", 2_000, func(r *Runner) { r.chans[0].done = r.chans[0].sent + 1 },
			[]string{"channel-accounting"}, "only"},
		{"split-handle", 1_000, func(r *Runner) { first(r).id = -1 },
			[]string{"split-accounting"}, "completes holding slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS, Cycles: 2_000, Checked: true})
			if err != nil {
				t.Fatal(err)
			}
			r.RunTo(tc.at)
			tc.doctor(r)
			r.RunTo(2_000)
			vs := r.Finish().Obs.Violations
			var kinds []string
			for _, v := range vs {
				kinds = append(kinds, v.Kind)
			}
			if !reflect.DeepEqual(kinds, tc.want) || !strings.Contains(vs[0].Detail, tc.detail) {
				t.Fatalf("doctored ledger reported as %v, want kinds %v, the first naming %q", vs, tc.want, tc.detail)
			}
		})
	}
}

// TestAuditCatchesNILedgerDrift: a core keeps the flits of its splits not
// yet cut as a ledger beside the requests linked in its backlog, and each
// audit recounts them by cutting the requests again, so a ledger one flit
// off is reported, as inject-backlog and as nothing else.
func TestAuditCatchesNILedgerDrift(t *testing.T) {
	r, err := New(Config{
		App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM, PriorityDemand: true,
		VirtualChannels: 2, Cycles: 5_000, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RunTo(5_000)
	if vs := r.chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported %v", vs)
	}
	var c *coreNI
	for _, ni := range r.cores {
		if ni.uncut > 0 {
			c = ni
			break
		}
	}
	if c == nil {
		t.Fatal("no core has a split waiting uncut: the fault would not be exercised")
	}
	c.uncut++
	r.auditMeshes(r.Now())
	if vs := r.chk.Violations(); len(vs) != 1 || vs[0].Kind != "inject-backlog" {
		t.Fatalf("ledger one flit off reported as %v, want one inject-backlog", vs)
	}
}
