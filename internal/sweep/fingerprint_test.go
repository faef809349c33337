package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

// checkKey holds Fingerprint to its definition, its reference: the
// SHA-256 of the resolved config's bytes in the codec form, which decode
// back to the resolved config with the fields the key leaves out (Trace,
// NoIdleSkip) zero. A config the key cannot hold — a trace writer, a
// fault, a non-finite float — must be uncacheable.
func checkKey(t *testing.T, cfg system.Config) {
	t.Helper()
	want := cfg.Resolved()
	b, err := keyPlan.Append(nil, reflect.ValueOf(want))
	fp, ok := Fingerprint(cfg)
	if err != nil || cfg.Trace != nil || cfg.Fault != dram.FaultNone {
		if ok {
			t.Fatalf("%s: a config the key cannot hold fingerprints as %s", cfg.App.Name, fp)
		}
		return
	}
	if sum := sha256.Sum256(b); !ok || fp != hex.EncodeToString(sum[:]) {
		t.Fatalf("%s: Fingerprint = %s/%t, want the hash of its %d key bytes, %x", cfg.App.Name, fp, ok, len(b), sum)
	}
	var back system.Config
	if err := keyPlan.Decode(b, reflect.ValueOf(&back).Elem()); err != nil {
		t.Fatalf("%s: key bytes do not decode: %v", cfg.App.Name, err)
	}
	want.Trace, want.NoIdleSkip = nil, false
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("%s: key bytes decode to\n%+v\nwant the resolved config\n%+v", cfg.App.Name, back, want)
	}
}

// TestFingerprintMatchesReference holds Fingerprint to checkKey's
// reference over the builtin grid, every optional part of the key,
// generated scenarios (random stream floats), float edge cases and the
// fields the key leaves out.
func TestFingerprintMatchesReference(t *testing.T) {
	var cfgs []system.Config
	for _, app := range append(appmodel.Apps(), appmodel.Scaled()...) {
		for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
			for _, d := range system.Designs() {
				for _, pd := range []bool{false, true} {
					cfgs = append(cfgs, system.Config{App: app, Gen: gen, Design: d, PriorityDemand: pd})
				}
			}
		}
	}
	for p := memctrl.OpenPage; p <= memctrl.ClosedPage; p++ {
		cfg := grid(1)[0]
		cfg.PagePolicy = &p
		cfgs = append(cfgs, cfg)
	}
	sentinel := grid(1)[0]
	sentinel.Warmup = -1
	spec := grid(1)[0]
	spec.WorkloadStats = true
	spec.Replay = []trace.Record{
		{Cycle: 3, Core: "cpu", Kind: "R", Class: "demand", Priority: true, Bank: 1, Row: 2, Col: 8, Beats: 4},
		{Cycle: 9, Core: "vid", Kind: "W", Class: "media", Bank: 3, Row: 7, Col: 16, Beats: 8, EndOfRow: true},
	}
	cfgs = append(cfgs, sentinel, spec, system.Config{})
	for seed := uint64(1); seed <= 64; seed++ {
		cfg, err := scenario.Generate(seed, scenario.GenOptions{}).SystemConfig(scenario.Run{})
		if err != nil {
			t.Fatalf("generated scenario %d: %v", seed, err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 1e21, 1e-4, 1e-5, 123456789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		cfg := grid(1)[0]
		s := &cfg.App.Cores[0].Streams[0]
		s.ReadFrac, s.LoadFrac = f, -f
		cfgs = append(cfgs, cfg)
	}
	excluded := grid(1)[0]
	excluded.NoIdleSkip = true
	traced := grid(1)[0]
	traced.Trace = &trace.Writer{}
	faulted := grid(1)[0]
	faulted.Fault = dram.FaultSkipTRCD
	cfgs = append(cfgs, excluded, traced, faulted)

	for _, cfg := range cfgs {
		checkKey(t, cfg)
	}
}

// TestSpecSharesBuiltinKey: the resolved config names a run, so a spec
// of a builtin model, written out and parsed back, keys with the
// builtin's own run and hits its store entries; a spec that differs in
// one stream's content keys apart.
func TestSpecSharesBuiltinKey(t *testing.T) {
	run := scenario.Run{Generation: 2}
	builtin, err := scenario.Resolve(appmodel.BluRay(), run, system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Fingerprint(builtin)
	reparse := func(a appmodel.App) string {
		var buf bytes.Buffer
		if err := scenario.FromApp(a).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.SystemConfig(run)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := Fingerprint(cfg)
		if !ok {
			t.Fatal("spec-driven config not cacheable")
		}
		return fp
	}
	if got := reparse(appmodel.BluRay()); got != want {
		t.Errorf("bluray's spec keys as %s, the builtin run as %s", got, want)
	}
	other := appmodel.BluRay()
	other.Cores[0].Streams[0].LoadFrac /= 2
	if got := reparse(other); got == want {
		t.Errorf("a spec with %s's load halved shares the builtin's key %s", other.Cores[0].Streams[0].Name, want)
	}
}

// TestFingerprintSeparatesStrings: a string's length is in the key, so
// two replay records whose fields would print alike side by side ("Core:a
// Kind:R Kind: Class:") key apart.
func TestFingerprintSeparatesStrings(t *testing.T) {
	a, b := grid(1)[0], grid(1)[0]
	a.Replay = []trace.Record{{Core: "a", Kind: "R Kind:"}}
	b.Replay = []trace.Record{{Core: "a Kind:R", Kind: ""}}
	fa, _ := Fingerprint(a)
	if fb, _ := Fingerprint(b); fa == fb {
		t.Fatalf("records %+v and %+v share fingerprint %s", a.Replay[0], b.Replay[0], fa)
	}
}

// TestFingerprintAllocs gates the key's allocations: the bytes go into
// a pooled buffer and a stack digest, so a key allocates only its
// string, however many cores and streams the model has. Not checked
// under -race, where sync.Pool drops a share of its Puts at random.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	for _, app := range []appmodel.App{appmodel.DualDTV(), appmodel.QuadDTV()} {
		cfg := system.Config{App: app, Gen: dram.DDR3, Design: system.GSSSAGM}
		if got := testing.AllocsPerRun(100, func() { Fingerprint(cfg) }); got > 1 {
			t.Errorf("%s: Fingerprint allocates %.0f times, want 1", app.Name, got)
		}
	}
}

var fingerprintSink string

func BenchmarkFingerprint(b *testing.B) {
	cfg := system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink, _ = Fingerprint(cfg)
	}
}
