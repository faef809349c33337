package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/obs"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
	"aanoc/internal/traffic"
)

func builtins() []appmodel.App {
	return append(appmodel.Apps(), appmodel.Scaled()...)
}

// TestGenerateDeterministic pins the generator's determinism contract:
// the same (seed, options) returns a deeply-equal spec, and the specs
// resolve to configurations with equal sweep fingerprints — so a
// regenerated scenario hits the sweep cache instead of re-simulating.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := Generate(seed, GenOptions{})
		b := Generate(seed, GenOptions{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two Generate calls disagree", seed)
		}
		ca, err := a.SystemConfig(Run{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cb, err := b.SystemConfig(Run{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fa, oka := sweep.Fingerprint(ca)
		fb, okb := sweep.Fingerprint(cb)
		if !oka || !okb || fa != fb {
			t.Fatalf("seed %d: fingerprints diverge (%q vs %q)", seed, fa, fb)
		}
	}
	if reflect.DeepEqual(Generate(1, GenOptions{}), Generate(2, GenOptions{})) {
		t.Fatal("different seeds generated identical specs")
	}
}

// specHash is the SHA-256 of a spec's compact JSON (a spec file's
// content without the indentation), so a pinned hash moves when the
// file format or the generator does.
func specHash(s *Spec) string {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestHashesPinned holds the spec bytes of the builtin models and of the
// generator still across refactors of the model: the literals date from
// the mirrored spec types the tagged application model replaced. all is
// sha256 over the hex hashes of seeds 1-200, so it pins the generator's
// determinism.
func TestHashesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *Spec
		want string
	}{
		{"bluray", FromApp(appmodel.BluRay()), "2bfa06692e000f5ee031080fb6e8a7239034fda8f7ca38618b69588ee9a65542"},
		{"ddtv4", FromApp(appmodel.QuadDTV()), "06f400a8d9c92bd15b46bd89c691cf523d0fb4caa3c0570470bc533802f1ef09"},
		{"seed 1", Generate(1, GenOptions{}), "b4d4608081cb7cb12cbe041c6d6d871b2a3066b90acf0e9afbe6f049ef455bc3"},
		{"seed 200", Generate(200, GenOptions{}), "5be931d6b502a05400ea99f130d75ece247838cc7a878d657c5cb0a1f32d59e7"},
	} {
		if got := specHash(tc.spec); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, got, tc.want)
		}
	}
	all := sha256.New()
	for seed := uint64(1); seed <= 200; seed++ {
		fmt.Fprintf(all, "%s\n", specHash(Generate(seed, GenOptions{})))
	}
	const want = "dadcb954bf1983e3f61e11fc335673708c63e3b3aeab99725c9a9337f878a093"
	if got := hex.EncodeToString(all.Sum(nil)); got != want {
		t.Errorf("seeds 1-200: digest of hashes %s, want %s", got, want)
	}
}

// TestGenerateValidates asserts every generated spec passes Validate —
// the generator is not allowed to emit scenarios the platform rejects.
func TestGenerateValidates(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		if err := Generate(seed, GenOptions{}).Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}
	}
	// The CI large-mesh leg's options too.
	if err := Generate(3, GenOptions{MeshMin: 16, MeshMax: 16}).Validate(); err != nil {
		t.Fatalf("16x16 spec invalid: %v", err)
	}
}

// TestSpecRoundTrip: WriteJSON then Parse is the identity on specs.
func TestSpecRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := Generate(seed, GenOptions{})
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("seed %d: spec did not round-trip through JSON", seed)
		}
		if specHash(s) != specHash(back) {
			t.Fatalf("seed %d: spec bytes changed across the round trip", seed)
		}
	}
}

// TestFromAppRoundTrip: every builtin application model is a valid spec
// as it stands and survives the trip through the spec file format deeply
// equal — the exactness the golden spec corpus (testdata/specs in the
// root package) relies on.
func TestFromAppRoundTrip(t *testing.T) {
	for _, a := range builtins() {
		s := FromApp(a)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: FromApp spec invalid: %v", a.Name, err)
		}
		back, err := Parse(mustJSON(t, s))
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if !reflect.DeepEqual(a, back.App) {
			t.Fatalf("%s: the model changed across WriteJSON/Parse", a.Name)
		}
	}
}

// TestParseErrors pins the Parse error contract: non-spec JSON wraps
// ErrParse, well-formed JSON describing an impossible scenario wraps
// ErrSpec or a field sentinel — and nothing panics.
func TestParseErrors(t *testing.T) {
	valid := func() *Spec { return FromApp(appmodel.BluRay()) }
	// respell rewrites the first occurrence of one JSON member of the
	// valid spec: a name no Go value can hold has to be typed into the file.
	respell := func(from, to string) []byte {
		data := mustJSON(t, valid())
		if !bytes.Contains(data, []byte(from)) {
			t.Fatalf("valid spec has no %s", from)
		}
		return bytes.Replace(data, []byte(from), []byte(to), 1)
	}
	cases := []struct {
		name string
		data []byte
		want error
		msg  string // must appear in the error text
	}{
		{"syntax", []byte(`{"name":`), ErrParse, ""},
		{"empty", nil, ErrParse, ""},
		{"unknown-field", []byte(`{"name":"x","bogus":1}`), ErrParse, ""},
		{"type-mismatch", []byte(`{"name":3}`), ErrParse, ""},
		{"class-not-a-string", respell(`"class": "media"`, `"class": 2`), ErrParse, ""},
		{"trailing-data", append(mustJSON(t, valid()), []byte("{}")...), ErrParse, ""},
		{"no-name", []byte(`{"mesh":{"width":3,"height":3},"memPorts":[{"x":0,"y":0}]}`), ErrSpec, "no name"},
		{"no-ports", []byte(`{"name":"x","mesh":{"width":3,"height":3}}`), ErrSpec, "no memory ports"},
		{"bad-class", respell(`"class": "media"`, `"class": "bulk"`), ErrSpec, `"bulk"`},
		{"bad-pattern", respell(`"pattern": "streaming"`, `"pattern": "zigzag"`), ErrSpec, `"zigzag"`},
		{"bad-clock", mutate(t, valid(), func(s *Spec) { s.Clocks.DDR2 = 250 }), ErrSpec, ""},
		{"missing-clock", mutate(t, valid(), func(s *Spec) { s.Clocks.DDR1 = 0 }), ErrSpec, "missing clock"},
		{"core-on-port", mutate(t, valid(), func(s *Spec) { s.Cores[0].Pos = s.MemPorts[0] }), ErrSpec, "share"},
		{"bad-generation", mutate(t, valid(), func(s *Spec) { s.Run = &Run{Generation: 9} }), ErrBadGeneration, ""},
		{"bad-channels", mutate(t, valid(), func(s *Spec) { s.Run = &Run{Channels: 2} }), ErrBadChannels, ""},
		{"bad-scheme", mutate(t, valid(), func(s *Spec) { s.Run = &Run{Scheme: "stripe"} }), ErrBadScheme, ""},
		{"bad-scheduler", mutate(t, valid(), func(s *Spec) { s.Run = &Run{Scheduler: "fcfs"} }), ErrUnknownScheduler, ""},
		{"bad-sample-every", mutate(t, valid(), func(s *Spec) { s.Run = &Run{SampleEvery: -1} }), ErrBadSampleEvery, ""},
		{"bad-cycles", mutate(t, valid(), func(s *Spec) { s.Run = &Run{Cycles: -5} }), ErrSpec, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Parse error %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("Parse error %q does not mention %s", err, tc.msg)
			}
		})
	}
}

// TestOmittedPatternIsStreaming: a hand-written stream that leaves
// "pattern" out, or spells it "", is the "streaming" spec — one parsed
// value, one JSON form.
func TestOmittedPatternIsStreaming(t *testing.T) {
	want := FromApp(appmodel.BluRay())
	member := regexp.MustCompile(`"pattern": "streaming",`)
	for _, to := range []string{"", `"pattern": "",`} {
		data := member.ReplaceAll(mustJSON(t, want), []byte(to))
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("pattern spelled %q: %v", to, err)
		}
		if !reflect.DeepEqual(got, want) || specHash(got) != specHash(want) {
			t.Errorf("pattern spelled %q: not the \"streaming\" spec", to)
		}
	}
}

// mustJSON marshals a spec for test input.
func mustJSON(t *testing.T, s *Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mutate applies an edit to a freshly built spec and returns its JSON.
func mutate(t *testing.T, s *Spec, f func(*Spec)) []byte {
	t.Helper()
	f(s)
	return mustJSON(t, s)
}

// TestResolveSentinels drives the shared validation path directly with
// the same inputs the facade parity table (root package) uses, so a
// sentinel regression is caught on both sides of the API boundary.
func TestResolveSentinels(t *testing.T) {
	app := appmodel.BluRay()
	quad := appmodel.QuadDTV()
	cases := []struct {
		name string
		app  appmodel.App
		run  Run
		want error
	}{
		{"gen-high", app, Run{Generation: 9}, ErrBadGeneration},
		{"gen-negative", app, Run{Generation: -1}, ErrBadGeneration},
		{"channels-negative", app, Run{Channels: -1}, ErrBadChannels},
		{"channels-over-ports", app, Run{Channels: 2}, ErrBadChannels},
		{"channels-xor-odd", quad, Run{Channels: 3, Scheme: "chan-bank-xor"}, ErrBadChannels},
		{"scheme", app, Run{Scheme: "stripe"}, ErrBadScheme},
		{"scheduler", app, Run{Scheduler: "fcfs"}, ErrUnknownScheduler},
		{"sample-every", app, Run{SampleEvery: -1}, ErrBadSampleEvery},
		{"cycles", app, Run{Cycles: -1}, ErrSpec},
		{"bad-app", appmodel.App{}, Run{}, ErrSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Resolve(tc.app, tc.run, system.Config{}); !errors.Is(err, tc.want) {
				t.Fatalf("Resolve error %v, want %v", err, tc.want)
			}
		})
	}
	// The happy path resolves the documented defaults.
	cfg, err := Resolve(app, Run{}, system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gen != 2 || cfg.Channels != 1 {
		t.Fatalf("defaults: gen=%d channels=%d, want 2/1", cfg.Gen, cfg.Channels)
	}
}

// TestMergeOverlay pins the zero-field overlay semantics: nonzero
// override fields win, zero fields fall through, PriorityDemand ORs.
func TestMergeOverlay(t *testing.T) {
	def := Run{Generation: 3, ClockMHz: 667, Channels: 2, Scheme: "chan-bank-xor",
		Scheduler: "dpq", PriorityDemand: true, Cycles: 1000, Warmup: 10, Seed: 7, SampleEvery: 50}
	got := Run{}.Merge(def)
	if !reflect.DeepEqual(got, def) {
		t.Fatalf("zero override did not inherit the spec block: %+v", got)
	}
	over := Run{Generation: 1, Scheduler: "staged", Cycles: 99}
	got = over.Merge(def)
	if got.Generation != 1 || got.Scheduler != "staged" || got.Cycles != 99 {
		t.Fatalf("nonzero override fields lost: %+v", got)
	}
	if got.ClockMHz != 667 || got.Channels != 2 || !got.PriorityDemand || got.Seed != 7 {
		t.Fatalf("zero override fields did not fall through: %+v", got)
	}
}

// runWorkload runs a spec with workload collection on and returns the
// spec and its report.
func runWorkload(t *testing.T, seed uint64, cycles int64) (*Spec, system.Result) {
	t.Helper()
	s := Generate(seed, GenOptions{})
	cfg, err := s.SystemConfig(Run{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Design = system.GSSSAGM
	cfg.WorkloadStats = true
	res, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestCalibrateClean: a generated scenario, run as declared, calibrates
// with zero misses — the headline contract of the scenario platform.
func TestCalibrateClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system calibration runs")
	}
	for _, seed := range []uint64{7, 11, 23} {
		s, res := runWorkload(t, seed, 20_000)
		if misses := Calibrate(s, res.Obs); len(misses) > 0 {
			for _, m := range misses {
				t.Errorf("seed %d: %s", seed, m)
			}
		}
	}
}

// TestCalibrateDetectsDrift proves the calibration layer is not
// vacuous: tampering with the declared distributions after the run must
// produce misses. Each mutation models a real generator bug.
func TestCalibrateDetectsDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system calibration run")
	}
	s, res := runWorkload(t, 7, 20_000)

	// Find the busiest stream so the tampered checks clear MinSamples.
	bi := 0
	for i, w := range res.Obs.Workload {
		if w.Produced > res.Obs.Workload[bi].Produced {
			bi = i
		}
	}
	busiest := res.Obs.Workload[bi]
	locate := func(sp *Spec) *traffic.Stream {
		for ci := range sp.Cores {
			if sp.Cores[ci].Name != busiest.Core {
				continue
			}
			for si := range sp.Cores[ci].Streams {
				if sp.Cores[ci].Streams[si].Name == busiest.Stream {
					return &sp.Cores[ci].Streams[si]
				}
			}
		}
		t.Fatalf("stream %s/%s not in spec", busiest.Core, busiest.Stream)
		return nil
	}
	copySpec := func() *Spec {
		back, err := Parse(mustJSON(t, s))
		if err != nil {
			t.Fatal(err)
		}
		return back
	}

	mutations := []struct {
		name   string
		tamper func(*Spec)
	}{
		{"read-frac", func(sp *Spec) {
			st := locate(sp)
			if st.ReadFrac < 0.5 {
				st.ReadFrac = 0.95
			} else {
				st.ReadFrac = 0.05
			}
		}},
		{"beats-menu", func(sp *Spec) { locate(sp).Beats = []int{3} }},
		{"phantom-stream", func(sp *Spec) {
			c := &sp.Cores[0]
			ghost := c.Streams[0]
			ghost.Name = "ghost"
			c.Streams = append(c.Streams, ghost)
		}},
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			sp := copySpec()
			mu.tamper(sp)
			if misses := Calibrate(sp, res.Obs); len(misses) == 0 {
				t.Fatal("tampered spec calibrated clean — the check is vacuous")
			}
		})
	}
}

// TestCalibrateMissOrder: the misses of one report come out in one order
// — burst sizes ascending, per stream and in the aggregate — so aanoc gen
// -run prints the same stderr run after run. The report is drifted on
// purpose: every request of a seven-size menu landed in the smallest bin.
func TestCalibrateMissOrder(t *testing.T) {
	menu := []int{14, 2, 10, 6, 12, 4, 8}
	sp := FromApp(appmodel.App{
		Name: "drift",
		Cores: []appmodel.Core{{Name: "c", Streams: []traffic.Stream{
			{Name: "s", ReadFrac: 0.5, Beats: menu, ClosedLoop: true},
		}}},
	})
	rep := &obs.Report{Workload: []obs.StreamWorkload{{
		Core: "c", Stream: "s", Produced: 7000, Reads: 3500, Writes: 3500,
		Beats: []obs.BeatBin{{Beats: 2, Count: 7000}},
	}}}
	want := []string{}
	for range 2 { // the stream's checks, then the aggregate's
		for _, b := range []int{2, 4, 6, 8, 10, 12, 14} {
			want = append(want, fmt.Sprintf("beats-share[%d]", b))
		}
	}
	for run := 0; run < 20; run++ {
		var got []string
		for _, m := range Calibrate(sp, rep) {
			got = append(got, m.Metric)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: misses %v, want %v", run, got, want)
		}
	}
}

// TestSpecFieldsTagged: the spec file format is the struct tags of Spec
// and everything reachable from it (appmodel, traffic, noc), so an
// exported field without a json tag would enter the format under its Go
// name by accident. Only an embedded struct may go untagged: it flattens.
func TestSpecFieldsTagged(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" && !f.Anonymous {
				t.Errorf("%s.%s has no json name", typ, f.Name)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Spec{}))
	if len(seen) < 8 { // Spec, Run, App, Mesh, Clocks, Core, Stream, Coord
		t.Errorf("walked %d struct types; the spec reaches eight", len(seen))
	}
}
