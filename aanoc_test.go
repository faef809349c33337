package aanoc

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{Design: GSS, Cycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "bluray" || res.Gen != 2 {
		t.Fatalf("defaults wrong: %+v", res)
	}
	if res.Utilization <= 0 || res.Completed == 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Model: "nope", Cycles: 1000}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Run(Config{Generation: 9, Cycles: 1000}); err == nil {
		t.Error("invalid generation accepted")
	}
}

func TestAppsAndDesigns(t *testing.T) {
	if apps := AllApps(); len(apps) != 5 || !slices.Equal(apps[:3], []App{AppBluRay, AppSDTV, AppDDTV}) {
		t.Fatalf("apps = %v", apps)
	}
	if len(Designs()) != 7 {
		t.Fatalf("designs = %v", Designs())
	}
	for _, d := range Designs() {
		if got, err := ParseDesign(d.String()); err != nil || got != d {
			t.Errorf("ParseDesign round trip failed for %s", d)
		}
	}
}

// TestTableDriversRejectNegativeCycles: a negative cycle count fails
// every grid driver before anything simulates — no all-zero rows, and
// nothing for a store to persist. Cycles: 0 keeps meaning 200,000.
func TestTableDriversRejectNegativeCycles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := TableOptions{Cycles: -5, Store: st}
	for name, drive := range map[string]func() error{
		"TableI":          func() error { _, err := TableI(o); return err },
		"TableII":         func() error { _, err := TableII(o); return err },
		"TableIII":        func() error { _, err := TableIII(o); return err },
		"TableSchedulers": func() error { _, err := TableSchedulers(o); return err },
		"Fig8":            func() error { _, err := Fig8("bluray", 2, 333, o); return err },
		"TableV":          func() error { _, err := TableV(o); return err },
	} {
		if err := drive(); err == nil {
			t.Errorf("%s accepted Cycles: -5", name)
		}
	}
	if n := st.Stats().Entries; n != 0 {
		t.Errorf("rejected grids left %d store entries", n)
	}
}

func TestTableDriversSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table drivers are long")
	}
	o := TableOptions{Cycles: 10_000}
	t1, err := TableI(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 3*3*4 {
		t.Fatalf("Table I rows = %d, want 36", len(t1))
	}
	t2, err := TableII(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 36 {
		t.Fatalf("Table II rows = %d, want 36", len(t2))
	}
	for _, r := range t2 {
		if r.LatPriority <= 0 {
			t.Fatalf("Table II row without priority latency: %+v", r)
		}
	}
	t3, err := TableIII(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3) != 6 {
		t.Fatalf("Table III rows = %d, want 6", len(t3))
	}
	if s := FormatRows(t3); len(s) == 0 {
		t.Fatal("FormatRows empty")
	}
}

func TestFig8Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is long")
	}
	pts, err := Fig8("sdtv", 1, 200, TableOptions{Cycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 10 (k=0..9)", len(pts))
	}
	// Row k runs the k routers nearest the memory as GSS: none at k=0,
	// all nine at k=9.
	if pts[0].GSSGrants != 0 || pts[9].GSSGrants == 0 {
		t.Fatalf("sweep bounds wrong: GSS grants %d at k=0, %d at k=9", pts[0].GSSGrants, pts[9].GSSGrants)
	}
	// The paper's saturation effect: three GSS routers capture most of
	// the utilization gain.
	if pts[3].Utilization <= pts[0].Utilization {
		t.Errorf("k=3 (%.3f) should beat k=0 (%.3f)", pts[3].Utilization, pts[0].Utilization)
	}
}

// TestFig8IgnoresSpec: Fig8 runs the named builtin, so a spec in the
// options — here one whose run block asks for two channels, which the
// single-port sdtv platform cannot have — changes nothing.
func TestFig8IgnoresSpec(t *testing.T) {
	ddtv4, err := appmodel.ByName("ddtv4")
	if err != nil {
		t.Fatal(err)
	}
	sp := scenario.FromApp(ddtv4)
	sp.Run = &SpecRun{Channels: 2}
	with, err := Fig8("sdtv", 1, 200, TableOptions{Cycles: 2000, Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Fig8("sdtv", 1, 200, TableOptions{Cycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(with, without) {
		t.Errorf("Fig8 with a spec = %+v, without = %+v", with, without)
	}
}

func TestTableIVandV(t *testing.T) {
	rows := TableIV()
	if len(rows) != 3 {
		t.Fatalf("Table IV rows = %d", len(rows))
	}
	if rows[2].NoC3x3 >= rows[0].NoC3x3 {
		t.Error("proposed design should be smallest")
	}
	if testing.Short() {
		return
	}
	pw, err := TableV(TableOptions{Cycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pw) != 9 {
		t.Fatalf("Table V rows = %d, want 9", len(pw))
	}
	for i := 0; i < 9; i += 3 {
		conv, ours := pw[i], pw[i+2]
		if conv.PowerMW <= ours.PowerMW {
			t.Errorf("%s: CONV power (%.1f) should exceed ours (%.1f)", conv.App, conv.PowerMW, ours.PowerMW)
		}
	}
}

// TestCheckedViolations: rows without a report and clean checked rows
// count nothing, every recorded violation counts one, and a list's
// closing Dropped(n) entry counts as the n violations it stands for.
func TestCheckedViolations(t *testing.T) {
	v := obs.Violation{Cycle: 7, Component: "dram", Kind: "tRCD", Detail: "RD to bank 1 at 7"}
	clean := Row{Obs: &obs.Report{Checked: true}}
	two := Row{Obs: &obs.Report{Checked: true, Violations: []obs.Violation{v, v}}}
	dropped := Row{Obs: &obs.Report{Checked: true, Violations: []obs.Violation{v, v, obs.Dropped(40)}}}
	for _, tc := range []struct {
		name string
		rows []Row
		want int
	}{
		{"none", nil, 0},
		{"no reports", []Row{{}, {}}, 0},
		{"clean", []Row{clean, {}, clean}, 0},
		{"recorded", []Row{clean, two}, 2},
		{"dropped", []Row{dropped}, 42},
		{"mixed", []Row{{}, two, clean, dropped}, 44},
	} {
		if got := CheckedViolations(tc.rows); got != tc.want {
			t.Errorf("%s: CheckedViolations = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCheckedErrNamesFirstViolation: the error Fig8, Fig8Spec and TableV
// return for a checked grid names the first run that recorded a
// violation, its total and its first entry; a clean grid, checked or
// not, is no error.
func TestCheckedErrNamesFirstViolation(t *testing.T) {
	clean := Row{App: "bluray", Gen: 2, Design: GSS, Obs: &obs.Report{Checked: true}}
	bad := Row{App: "sdtv", Gen: 1, Design: GSSSAGM, Obs: &obs.Report{Checked: true, Violations: []obs.Violation{
		{Cycle: 7, Component: "dram", Kind: "tRCD", Detail: "RD to bank 1 at 7"},
		{Cycle: 9, Component: "dram", Kind: "tRCD", Detail: "RD to bank 2 at 9"},
		obs.Dropped(5),
	}}}
	if err := checkedErr([]Row{clean, {}, clean}); err != nil {
		t.Fatalf("clean grid: %v", err)
	}
	err := checkedErr([]Row{clean, bad, bad})
	if !errors.Is(err, obs.ErrViolations) {
		t.Fatalf("err = %v, want obs.ErrViolations", err)
	}
	for _, want := range []string{"7 on grid point 1", "sdtv DDR1/GSS+SAGM", "cycle 7: dram: tRCD"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
