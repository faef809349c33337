package system

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/trace"
)

// TestValidateRules has one row per rule of Config.Validate, naming the
// sentinel it wraps. New must reject the same configuration with the same
// error, and the message must carry the sentinel's text once.
func TestValidateRules(t *testing.T) {
	offMesh := appmodel.BluRay()
	offMesh.Cores = append([]appmodel.Core(nil), offMesh.Cores...)
	offMesh.Cores[0].Pos = noc.Coord{X: 9, Y: 9}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want error
	}{
		{"app-empty", func(c *Config) { c.App = appmodel.App{} }, ErrInvalid},
		{"app-core-off-mesh", func(c *Config) { c.App = offMesh }, ErrInvalid},
		{"generation-high", func(c *Config) { c.Gen = 6 }, ErrBadGeneration},
		{"generation-negative", func(c *Config) { c.Gen = -1 }, ErrBadGeneration},
		{"clock-no-grade", func(c *Config) { c.ClockMHz = 123 }, ErrInvalid},
		{"clock-other-generation", func(c *Config) { c.Gen, c.ClockMHz = dram.DDR4, 266 }, ErrInvalid},
		{"design-high", func(c *Config) { c.Design = 99 }, ErrInvalid},
		{"design-negative", func(c *Config) { c.Design = -1 }, ErrInvalid},
		{"channels-negative", func(c *Config) { c.Channels = -1 }, ErrBadChannels},
		{"channels-over-ports", func(c *Config) { c.Channels = 2 }, ErrBadChannels},
		{"channels-xor-odd", func(c *Config) {
			c.App, c.Channels, c.Scheme = appmodel.QuadDTV(), 3, mapping.ChannelThenBankXOR
		}, ErrBadChannels},
		{"scheme", func(c *Config) { c.Scheme = 7 }, ErrBadScheme},
		{"scheduler", func(c *Config) { c.Scheduler = memctrl.Scheduler(99) }, ErrUnknownScheduler},
		{"pct-high", func(c *Config) { c.PCT = 9 }, ErrInvalid},
		{"pct-negative", func(c *Config) { c.PCT = -2 }, ErrInvalid},
		{"gss-routers", func(c *Config) { c.GSSRouters = -7 }, ErrInvalid},
		{"virtual-channels-high", func(c *Config) { c.VirtualChannels = 9 }, ErrInvalid},
		{"virtual-channels-3", func(c *Config) { c.VirtualChannels = 3 }, ErrInvalid},
		{"virtual-channels-negative", func(c *Config) { c.VirtualChannels = -1 }, ErrInvalid},
		{"cycles", func(c *Config) { c.Cycles = -5 }, ErrInvalid},
		{"sample-every", func(c *Config) { c.SampleEvery = -1 }, ErrBadSampleEvery},
		{"subarrays", func(c *Config) { c.Subarrays = -1 }, ErrInvalid},
		{"split-granularity", func(c *Config) { c.SplitGranularity = -4 }, ErrInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smokeCfg(GSSSAGM)
			tc.set(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
			if n := strings.Count(err.Error(), tc.want.Error()); n != 1 {
				t.Errorf("message carries the sentinel text %d times: %s", n, err)
			}
			if _, newErr := New(cfg); newErr == nil || newErr.Error() != err.Error() {
				t.Errorf("New = %v, want Validate's %v", newErr, err)
			}
		})
	}
	// The zero Config plus an application is runnable: DDR2 at the
	// application's clock, every other default from Resolved.
	zero := Config{App: appmodel.BluRay()}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero config plus an app rejected: %v", err)
	}
	if r := zero.Resolved(); r.Gen != dram.DDR2 || r.ClockMHz != zero.App.Clocks.DDR2 || r.Cycles != 200_000 {
		t.Errorf("zero config resolved to gen=%d clock=%d cycles=%d", r.Gen, r.ClockMHz, r.Cycles)
	}
}

// TestValidateAllocatesOnlyForTheApp: on the accept path Validate is a
// list of comparisons — it allocates what App.Validate allocates and
// nothing of its own, so validating every point of a grid stays cheap.
func TestValidateAllocatesOnlyForTheApp(t *testing.T) {
	cfg := smokeCfg(GSSSAGM)
	app := testing.AllocsPerRun(50, func() { _ = cfg.App.Validate() })
	all := testing.AllocsPerRun(50, func() { _ = cfg.Validate() })
	if all != app {
		t.Errorf("Validate allocates %.0f times, App.Validate %.0f", all, app)
	}
}

// drawConfig draws one configuration for the property test: every field
// that has a rule is drawn invalid about one time in twenty, so roughly
// half the sample is runnable and every rule is hit many times.
func drawConfig(r *rand.Rand) Config {
	// pick returns one of valid, or now and then one of invalid.
	pick := func(valid, invalid []int) int {
		if r.Intn(20) == 0 {
			return invalid[r.Intn(len(invalid))]
		}
		return valid[r.Intn(len(valid))]
	}
	apps := append(appmodel.Apps(), appmodel.Scaled()...)
	cfg := Config{App: apps[r.Intn(len(apps))]}
	if r.Intn(20) == 0 {
		cfg.App.Cores = nil // an application with no cores
	}
	ports := len(cfg.App.Ports())
	cfg.Gen = dram.Generation(pick([]int{0, 1, 2, 3, 4, 5}, []int{-1, 6, 9}))
	if grades := dram.Speeds(cfg.Resolved().Gen); len(grades) > 0 {
		cfg.ClockMHz = pick(append(grades, 0), []int{123, grades[0] + 1, 100_000})
	}
	cfg.Design = Design(pick([]int{0, 1, 2, 3, 4, 5, 6}, []int{-1, 7, 99}))
	cfg.Subarrays = pick([]int{0, 1, 2, 4}, []int{-1})
	cfg.Channels = pick([]int{0, 1, ports}, []int{-1, ports + 1})
	cfg.Scheme = mapping.ChannelScheme(pick([]int{0, 0, 1}, []int{-1, 2}))
	cfg.Scheduler = memctrl.Scheduler(pick([]int{0, 1, 2, 3}, []int{-1, 4, 99}))
	cfg.PCT = pick([]int{0, 1, 3, 5, 6}, []int{-2, 7, 9})
	cfg.GSSRouters = pick([]int{-1, 0, 1, 4, 37}, []int{-2, -7})
	cfg.PriorityDemand = r.Intn(2) == 0
	cfg.Cycles = int64(pick([]int{0, 1, 5000}, []int{-1, -5}))
	cfg.Warmup = int64(r.Intn(100) - 10)
	cfg.Seed = uint64(r.Intn(3))
	// The three draws of the fields that became constants stay, discarded,
	// so every other field draws what it always did.
	_ = pick([]int{0, 1, 4, 16}, []int{-1})
	cfg.VirtualChannels = pick([]int{0, 1, 2}, []int{-1, 3, 4, 9})
	cfg.AdaptiveRouting = r.Intn(2) == 0
	_ = pick([]int{0, 1, 64}, []int{-1})
	_ = pick([]int{0, 1, 8}, []int{-1})
	cfg.SplitGranularity = pick([]int{0, 1, 4, 32}, []int{-1, -4})
	cfg.SampleEvery = int64(pick([]int{0, 250}, []int{-1}))
	cfg.Checked = r.Intn(4) == 0
	cfg.TagEveryRequest = r.Intn(2) == 0
	if p := r.Intn(4); p > 0 {
		policy := memctrl.PagePolicy(p - 1)
		cfg.PagePolicy = &policy
	}
	if r.Intn(8) == 0 && len(cfg.App.Cores) > 0 {
		cfg.Replay = []trace.Record{{Core: cfg.App.Cores[0].Name, Kind: "R", Class: "media", Beats: 4}}
	}
	return cfg
}

// TestValidateIffNewBuilds is the property the layers above rely on:
// Validate accepts a configuration exactly when New builds it.
func TestValidateIffNewBuilds(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n = 2500
	valid := 0
	for i := 0; i < n; i++ {
		cfg := drawConfig(r)
		vErr := cfg.Validate()
		_, nErr := New(cfg)
		if (vErr == nil) != (nErr == nil) {
			t.Fatalf("config %d: Validate = %v but New = %v\n%+v", i, vErr, nErr, cfg)
		}
		if vErr == nil {
			valid++
		}
	}
	if valid < n/4 || valid > 3*n/4 {
		t.Errorf("%d of %d drawn configs valid: the sample no longer exercises both sides", valid, n)
	}
}
