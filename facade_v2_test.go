package aanoc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"aanoc/internal/appmodel"
	"aanoc/internal/scenario"
)

// The v2 facade contract: typed App, sentinel-wrapped validation, the
// documented empty-App default, the deprecated string alias, and
// context cancellation.

func TestParseAppRoundTrip(t *testing.T) {
	apps := AllApps()
	if len(apps) != 5 {
		t.Fatalf("AllApps = %v, want the 3 paper apps + 2 scaled", apps)
	}
	for _, a := range apps {
		got, err := ParseApp(a.String())
		if err != nil || got != a {
			t.Errorf("ParseApp(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseApp("nope"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("ParseApp on garbage: %v, want ErrUnknownApp", err)
	}
	if _, err := ParseApp(""); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("ParseApp(\"\") = %v; the empty string is not an app (only Config defaults it)", err)
	}
}

// TestParseAppAllocs: resolving a name checks it and builds nothing,
// so a served point pays for no model it throws away. Unknown names are
// still refused.
func TestParseAppAllocs(t *testing.T) {
	for _, a := range AllApps() {
		name := a.String()
		if got := testing.AllocsPerRun(100, func() { ParseApp(name) }); got != 0 {
			t.Errorf("ParseApp(%q) allocates %.0f times, want 0", name, got)
		}
	}
	for _, bad := range []string{"nope", "lowutil", "BLURAY"} {
		if _, err := ParseApp(bad); !errors.Is(err, ErrUnknownApp) {
			t.Errorf("ParseApp(%q) = %v, want ErrUnknownApp", bad, err)
		}
	}
}

func TestValidateSentinels(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"unknown model", Config{Model: "vax"}, ErrUnknownApp},
		{"bad generation", Config{Generation: 9}, ErrBadGeneration},
		{"negative generation", Config{Generation: -1}, ErrBadGeneration},
		{"negative channels", Config{Channels: -1}, ErrBadChannels},
		{"too many channels", Config{Model: AppBluRay, Channels: 2}, ErrBadChannels},
		{"xor non-pow2", Config{Model: AppDDTV4, Channels: 3, ChannelScheme: ChannelThenBankXOR}, ErrBadChannels},
		{"unknown scheduler", Config{Scheduler: "fcfs"}, ErrUnknownScheduler},
		{"negative sample period", Config{SampleEvery: -1}, ErrBadSampleEvery},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Validation happens before run time: Run must fail identically
	// without simulating.
	if _, err := Run(Config{Model: "vax"}); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("Run did not surface ErrUnknownApp: %v", err)
	}
}

// TestValidateIsWhatRunRejects: the configurations Validate once accepted
// and Run then rejected (or, for Design(99), ran). Validate, Run and
// Sweep must return the same error, it must match under the facade's and
// internal/scenario's spelling of its sentinel, and no sentinel's text
// may appear in it twice.
func TestValidateIsWhatRunRejects(t *testing.T) {
	sentinels := []error{ErrUnknownApp, ErrBadGeneration, ErrBadChannels, ErrUnknownScheduler,
		ErrBadSampleEvery, ErrBadSpec, ErrBadGrid, scenario.ErrSpec, scenario.ErrParse, scenario.ErrBadScheme}
	for _, tc := range []struct {
		name             string
		cfg              Config
		facade, scenario error
	}{
		{"virtual channels", Config{VirtualChannels: 9}, ErrBadSpec, scenario.ErrSpec},
		{"pct high", Config{Design: GSS, PCT: 9}, ErrBadSpec, scenario.ErrSpec},
		{"pct negative", Config{Design: GSS, PCT: -2}, ErrBadSpec, scenario.ErrSpec},
		{"gss routers", Config{Design: GSS, GSSRouters: -7}, ErrBadSpec, scenario.ErrSpec},
		{"clock no grade", Config{ClockMHz: 123}, ErrBadSpec, scenario.ErrSpec},
		{"clock of another generation", Config{Generation: 4, ClockMHz: 266}, ErrBadSpec, scenario.ErrSpec},
		{"design", Config{Design: Design(99)}, ErrBadSpec, scenario.ErrSpec},
		{"channels", Config{Channels: 3}, ErrBadChannels, scenario.ErrBadChannels},
		{"cycles", Config{Cycles: -5}, ErrBadSpec, scenario.ErrSpec},
		{"sample period", Config{SampleEvery: -1}, ErrBadSampleEvery, scenario.ErrBadSampleEvery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, tc.facade) || !errors.Is(err, tc.scenario) {
				t.Fatalf("Validate = %v, want %v and %v", err, tc.facade, tc.scenario)
			}
			if _, runErr := Run(tc.cfg); runErr == nil || runErr.Error() != err.Error() {
				t.Errorf("Run = %v, want Validate's %v", runErr, err)
			}
			_, stats, gridErr := Sweep(SweepGrid{Points: []Config{{Cycles: 2000}, tc.cfg}}, SweepOptions{})
			if !errors.Is(gridErr, ErrBadGrid) || !errors.Is(gridErr, tc.facade) || stats.Runs != 0 {
				t.Errorf("Sweep = %v after %d runs, want the grid rejected before anything simulates", gridErr, stats.Runs)
			}
			for _, s := range sentinels {
				if n := strings.Count(gridErr.Error(), s.Error()); n > 1 {
					t.Errorf("message carries %q %d times: %s", s, n, gridErr)
				}
			}
		})
	}
}

// TestTableDriversRejectBadSpecScheme: a spec built in Go (ParseSpec
// would have rejected it) whose run block names no known channel scheme
// fails the table drivers instead of running bank-chan without a word.
func TestTableDriversRejectBadSpecScheme(t *testing.T) {
	sp := scenario.FromApp(appmodel.BluRay())
	sp.Run = &SpecRun{Scheme: "bogus"}
	o := TableOptions{Spec: sp, Cycles: 2000}
	for name, run := range map[string]func() error{
		"TableI":          func() error { _, err := TableI(o); return err },
		"TableII":         func() error { _, err := TableII(o); return err },
		"TableIII":        func() error { _, err := TableIII(o); return err },
		"TableSchedulers": func() error { _, err := TableSchedulers(o); return err },
		"Fig8Spec":        func() error { _, err := Fig8Spec(sp, 2, 0, TableOptions{Cycles: 2000}); return err },
	} {
		if err := run(); !errors.Is(err, ErrBadSpec) || !errors.Is(err, scenario.ErrBadScheme) {
			t.Errorf("%s = %v, want ErrBadSpec wrapping the unknown scheme", name, err)
		}
	}
}

func TestValidateAcceptsRunnableConfigs(t *testing.T) {
	for _, cfg := range []Config{
		{}, // the zero config is runnable by contract
		{Model: AppDDTV, Generation: 3, Design: GSSSAGMSTI},
		{Model: AppBluRay2, Channels: 2, Checked: true},
		{Model: AppDDTV4, Channels: 4, ChannelScheme: ChannelThenBankXOR},
		{Model: AppSDTV, Generation: 1},
		{Scheduler: SchedulerDPQ, Checked: true},
		{Scheduler: "default"},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", cfg, err)
		}
		// What Validate accepts, Run runs.
		cfg.Cycles = 2000
		if _, err := Run(cfg); err != nil {
			t.Errorf("Run(%+v) = %v after Validate accepted it", cfg, err)
		}
	}
}

// TestSchedulerFacade: the zoo through the public API — parse round
// trip, a checked DPQ run with its per-request WCET verification, and
// the scheduler identity on the report.
func TestSchedulerFacade(t *testing.T) {
	for _, s := range Schedulers() {
		got, err := ParseScheduler(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheduler(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheduler("fcfs"); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("ParseScheduler on garbage: %v, want ErrUnknownScheduler", err)
	}
	res, err := Run(Config{
		Scheduler: SchedulerDPQ, Design: GSSSAGM, PriorityDemand: true,
		Cycles: 15_000, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Obs.Violations); n != 0 {
		t.Fatalf("%d checked-mode violations", n)
	}
	if res.Obs.Scheduler != "dpq" {
		t.Errorf("report scheduler %q, want dpq", res.Obs.Scheduler)
	}
	ss := res.Obs.Memory.Scheduler
	if ss == nil || ss.WCETChecked == 0 {
		t.Fatalf("checked DPQ run verified no WCET deadlines: %+v", ss)
	}
}

// TestEmptyAppDefaultsToBluRay pins the documented default: an empty
// Model (and empty deprecated App) selects the Blu-ray application.
func TestEmptyAppDefaultsToBluRay(t *testing.T) {
	res, err := Run(Config{Design: GSS, Cycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != AppBluRay.String() {
		t.Fatalf("empty app ran %q, the documented default is %q", res.App, AppBluRay)
	}
}

// TestDeprecatedAppAliasEquivalence: the retired Config.App string
// migrates to Model through ParseApp — a pre-v2 caller's name string and
// the typed constant must run identically.
func TestDeprecatedAppAliasEquivalence(t *testing.T) {
	byModel, err := Run(Config{Model: AppSDTV, Generation: 1, Design: GSSSAGM, Cycles: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseApp("sdtv")
	if err != nil {
		t.Fatal(err)
	}
	byString, err := Run(Config{Model: parsed, Generation: 1, Design: GSSSAGM, Cycles: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byModel, byString) {
		t.Fatal("Model constant and ParseApp spellings diverge")
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Config{Cycles: 1_000_000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext = %v, want context.Canceled", err)
	}
	// A deadline mid-run must abandon a long simulation quickly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := RunContext(ctx2, Config{Cycles: 500_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRunContextUncancelledMatchesRun(t *testing.T) {
	cfg := Config{Model: AppBluRay, Design: GSSSAGM, PriorityDemand: true, Cycles: 20_000}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunContext diverges from Run")
	}
}

// TestFacadeMultiChannel drives the new axis end to end through the
// public API: two channels, checked, per-channel stats in the report.
func TestFacadeMultiChannel(t *testing.T) {
	res, err := Run(Config{
		Model: AppBluRay2, Design: GSSSAGM, PriorityDemand: true,
		Channels: 2, Cycles: 25_000, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Obs.Violations); n != 0 {
		t.Fatalf("%d checked-mode violations", n)
	}
	if len(res.Obs.Memory.Channels) != 2 {
		t.Fatalf("report has %d channel entries, want 2", len(res.Obs.Memory.Channels))
	}
}

func TestParseChannelSchemeFacade(t *testing.T) {
	s, err := ParseChannelScheme("chan-bank-xor")
	if err != nil || s != ChannelThenBankXOR {
		t.Fatalf("ParseChannelScheme = %v, %v", s, err)
	}
}
