package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
)

// open builds a store in a fresh temp directory.
func open(t *testing.T, o Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fabricated builds the Result of a small synthetic report plus a
// syntactically valid fingerprint for it — store tests don't need the
// simulator for most properties, only bytes that round-trip.
func fabricated(seed byte) (string, system.Result) {
	fp := strings.Repeat(string([]byte{'a' + seed%6}), 64)
	res, err := system.ResultOf(&obs.Report{
		SchemaVersion: obs.Schema,
		Design:        system.GSSSAGM.String(), App: "bluray", Gen: int(dram.DDR2),
		ClockMHz: 333, Cycles: 1000,
		Utilization: 0.25 + float64(seed)/1000,
		Generated:   100 + int64(seed), Completed: 90 + int64(seed),
	})
	if err != nil {
		panic(err)
	}
	return fp, res
}

func TestRoundTripByteIdentical(t *testing.T) {
	s := open(t, Options{})
	fp, res := fabricated(1)
	if err := s.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	back, ok, err := s.Get(fp)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	want, _ := json.Marshal(res)
	got, _ := json.Marshal(back)
	if string(want) != string(got) {
		t.Errorf("round trip not byte-identical:\n put %s\n got %s", want, got)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Entries != 1 || st.SizeBytes <= 0 {
		t.Errorf("stats after one put/get: %+v", st)
	}
}

// TestRealRunRoundTrip pins the property the whole store rests on: a
// genuine simulation Result — observability report, per-core stats,
// device counters, float64 metrics — survives the disk round trip with
// byte-identical canonical JSON, so store-served CLI output matches
// freshly simulated output exactly. One row per optional report shape:
// each row's has says which part it must carry.
func TestRealRunRoundTrip(t *testing.T) {
	base := system.Config{
		App: appmodel.BluRay(), Gen: dram.DDR2,
		Design: system.GSSSAGM, Cycles: 2000, Seed: 7,
	}
	with := func(f func(*system.Config)) system.Config {
		c := base
		f(&c)
		return c
	}
	multi := func(c *system.Config) { c.App, c.Channels = appmodel.BluRay2(), 2 }
	for _, row := range []struct {
		name string
		cfg  system.Config
		mut  func(*system.Result)
		has  func(*obs.Report) bool
	}{
		{"default", base, nil, func(r *obs.Report) bool { return r.Memory.Stream != nil }},
		{"ddr4-4ch-4sub", with(func(c *system.Config) {
			c.App, c.Channels, c.Gen, c.Subarrays = appmodel.QuadDTV(), 4, dram.DDR4, 4
		}), nil, func(r *obs.Report) bool { return len(r.Memory.Channels) == 4 && *r.Memory.Imbalance > 0 }},
		{"imbalance-zero", with(multi), func(res *system.Result) { *res.Obs.Memory.Imbalance = 0 },
			func(r *obs.Report) bool { return r.Memory.Imbalance != nil && *r.Memory.Imbalance == 0 }},
		{"zoo-scheduler", with(func(c *system.Config) { c.Scheduler = memctrl.SchedDPQ }), nil,
			func(r *obs.Report) bool { return r.Memory.Scheduler != nil }},
		{"samples", with(func(c *system.Config) { c.SampleEvery = 500 }), nil,
			func(r *obs.Report) bool { return len(r.Samples) == 4 }},
		{"workload", with(func(c *system.Config) { c.WorkloadStats = true }), nil,
			func(r *obs.Report) bool { return len(r.Workload) > 0 }},
		{"checked-fault", with(func(c *system.Config) {
			c.Cycles, c.Checked, c.Fault, c.PriorityDemand = 6000, true, dram.FaultSkipTRCD, true
		}), nil, func(r *obs.Report) bool { return len(r.Violations) > 0 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			res, err := system.Run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if row.mut != nil {
				row.mut(&res)
			}
			if !row.has(res.Obs) {
				t.Fatal("the run does not carry the report part this row covers")
			}
			s := open(t, Options{})
			fp := strings.Repeat("c", 64)
			if err := s.Put(fp, res); err != nil {
				t.Fatal(err)
			}
			back, ok, err := s.Get(fp)
			if err != nil || !ok {
				t.Fatalf("Get: ok=%v err=%v", ok, err)
			}
			want, _ := json.Marshal(res)
			got, _ := json.Marshal(back)
			if string(want) != string(got) {
				t.Error("result JSON not byte-identical after disk round trip")
			}
			var wantObs, gotObs bytes.Buffer
			if err := obs.EncodeJSON(&wantObs, res.Obs); err != nil {
				t.Fatal(err)
			}
			if err := obs.EncodeJSON(&gotObs, back.Obs); err != nil {
				t.Fatal(err)
			}
			if wantObs.String() != gotObs.String() {
				t.Error("report not byte-identical after disk round trip")
			}
		})
	}
}

// TestGetEqualsFinish: Finish's result names its config, and what Get
// returns is what Finish returned, deep equal, for every design, two and four channels, each zoo scheduler, a
// checked run and a generated spec's run; the store keeps the report
// alone and both sides read the rest from it through system.ResultOf.
func TestGetEqualsFinish(t *testing.T) {
	base := system.Config{App: appmodel.BluRay(), Gen: dram.DDR2, Cycles: 2000, Seed: 3}
	type point struct {
		name string
		cfg  system.Config
	}
	var points []point
	for _, d := range system.Designs() {
		c := base
		c.Design = d
		points = append(points, point{d.String(), c})
	}
	two := base
	two.App, two.Channels, two.Design = appmodel.BluRay2(), 2, system.GSSSAGM
	four := base
	four.App, four.Channels, four.Gen, four.Design = appmodel.QuadDTV(), 4, dram.DDR4, system.Conv
	points = append(points, point{"2ch", two}, point{"4ch", four})
	for _, sc := range memctrl.Schedulers()[1:] {
		c := base
		c.Design, c.Scheduler = system.GSSSAGM, sc
		points = append(points, point{sc.String(), c})
	}
	checked := base
	checked.Design, checked.Checked, checked.PriorityDemand = system.GSS, true, true
	spec, err := scenario.Generate(11, scenario.GenOptions{}).SystemConfig(scenario.Run{Generation: 3, Cycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, point{"checked", checked}, point{"spec", spec})

	s := open(t, Options{})
	for i, p := range points {
		r, err := system.New(p.cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		r.RunTo(p.cfg.Cycles)
		want := r.Finish()
		if c := p.cfg.Resolved(); want.Design != c.Design || want.App != c.App.Name || want.Gen != c.Gen ||
			want.ClockMHz != c.ClockMHz {
			t.Errorf("%s: Finish's result names %v/%s/%v/%d MHz, not its config's", p.name,
				want.Design, want.App, want.Gen, want.ClockMHz)
		}
		fp := fmt.Sprintf("%064x", i)
		if err := s.Put(fp, want); err != nil {
			t.Fatalf("%s: Put: %v", p.name, err)
		}
		got, ok, err := s.Get(fp)
		if !ok || err != nil {
			t.Fatalf("%s: Get: ok=%v err=%v", p.name, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Get returned\n%+v\nFinish returned\n%+v", p.name, got, want)
		}
	}
}

// TestUnknownDesignIsCorrupt: a payload that decodes but names a design
// this build does not know cannot be read back into a Result, so Get
// reports it as ErrCorrupt and removes it.
func TestUnknownDesignIsCorrupt(t *testing.T) {
	s := open(t, Options{})
	fp, res := fabricated(1)
	res.Obs.Design = "GSS+TURBO"
	if err := s.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fp); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of an unknown design: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if _, err := os.Stat(mustPath(t, s, fp)); !os.IsNotExist(err) {
		t.Error("unreadable entry not removed")
	}
}

// shape renders the type tree a codec plan writes, in the plan's order.
func shape(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + shape(t.Elem())
	case reflect.Slice:
		return "[]" + shape(t.Elem())
	case reflect.Struct:
		s := "{"
		for i := range t.NumField() {
			if t.Field(i).Tag.Get("codec") != "-" {
				s += t.Field(i).Name + " " + shape(t.Field(i).Type) + ";"
			}
		}
		return s + "}"
	}
	return t.Kind().String()
}

// TestPayloadShapePinned: nothing in an entry or a key names a field,
// so a change to the type tree the payload encodes (obs.Report's) would
// misread every stored entry, and one to the key's (system.Config's,
// reordered say) could serve an entry under another config's key. Such
// a change must bump formatVersion, which rotates the namespace, and
// pin its shape hash here.
func TestPayloadShapePinned(t *testing.T) {
	pinned := map[int]string{5: "430e628b1ac302b5"}
	sum := sha256.Sum256([]byte(shape(reflect.TypeFor[obs.Report]()) + shape(reflect.TypeFor[system.Config]())))
	if got := hex.EncodeToString(sum[:8]); pinned[formatVersion] != got {
		t.Errorf("obs.Report's and system.Config's type trees hash to %s, pinned for format v%d as %q: bump formatVersion and pin the new shape",
			got, formatVersion, pinned[formatVersion])
	}
}

func TestMissIsNotAnError(t *testing.T) {
	s := open(t, Options{})
	fp, _ := fabricated(2)
	_, ok, err := s.Get(fp)
	if ok || err != nil {
		t.Fatalf("empty-store Get: ok=%v err=%v, want clean miss", ok, err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("miss not counted: %+v", st)
	}
}

// TestCorruptEntryDetectedAndRemoved injects corruption three ways —
// flipped payload bytes, truncation, and a wholesale garbage file — and
// requires each to surface as ErrCorrupt, remove the entry, and leave
// the next Get a clean miss (the self-healing contract: corruption
// costs one re-simulation, never a wrong result).
func TestCorruptEntryDetectedAndRemoved(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			i := len(b) / 2
			b[i] ^= 0xff
			return b
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"garbage", func([]byte) []byte { return []byte("not json at all") }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, Options{})
			fp, res := fabricated(3)
			if err := s.Put(fp, res); err != nil {
				t.Fatal(err)
			}
			path, _ := s.path(fp)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get(fp)
			if ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt Get: ok=%v err=%v, want ErrCorrupt", ok, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry not removed")
			}
			if _, ok, err := s.Get(fp); ok || err != nil {
				t.Errorf("post-removal Get: ok=%v err=%v, want clean miss", ok, err)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Errorf("corruption not counted: %+v", st)
			}
		})
	}
}

// TestForeignNamespaceRejected: an entry whose header claims a
// different store version (or fingerprint) must not be served even if
// its payload hash checks out — the namespace directory is the
// versioning mechanism and an entry contradicting it is damage.
func TestForeignNamespaceRejected(t *testing.T) {
	s := open(t, Options{})
	fp, res := fabricated(4)
	if err := s.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	path, _ := s.path(fp)
	data, _ := os.ReadFile(path)
	header, _, _ := strings.Cut(string(data), "\n")
	tampered := strings.Replace(string(data), s.version+" ", "v0-s0-000000000000 ", 1)
	if !strings.HasPrefix(header, s.version+" ") || tampered == string(data) {
		t.Fatal("header line does not lead with the namespace")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fp); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign-namespace entry served: ok=%v err=%v", ok, err)
	}
}

func TestMalformedFingerprintRejected(t *testing.T) {
	s := open(t, Options{})
	for _, fp := range []string{
		"", "short", strings.Repeat("A", 64), // upper case is not canonical
		"../../../../etc/passwd" + strings.Repeat("a", 41),
		strings.Repeat("a", 63) + "/",
	} {
		if _, _, err := s.Get(fp); err == nil {
			t.Errorf("Get accepted malformed fingerprint %q", fp)
		}
		if err := s.Put(fp, system.Result{}); err == nil {
			t.Errorf("Put accepted malformed fingerprint %q", fp)
		}
	}
}

// TestConcurrentWritersOneFile: many goroutines writing the same
// fingerprint must leave exactly one readable entry (atomic rename,
// identical bytes) and no temp-file litter.
func TestConcurrentWritersOneFile(t *testing.T) {
	s := open(t, Options{})
	fp, res := fabricated(5)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := s.Put(fp, res); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	shard := filepath.Dir(mustPath(t, s, fp))
	entries, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != fp+".bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("shard holds %v, want exactly one entry", names)
	}
	if _, ok, err := s.Get(fp); !ok || err != nil {
		t.Fatalf("entry unreadable after concurrent writes: ok=%v err=%v", ok, err)
	}
}

func mustPath(t *testing.T, s *Store, fp string) string {
	t.Helper()
	p, err := s.path(fp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLRUEviction: with a byte cap that holds roughly two entries, a
// third Put must evict the least recently used — and a Get refreshes
// recency, so the touched entry survives over a colder, newer one.
func TestLRUEviction(t *testing.T) {
	fpA, resA := fabricated(0)
	fpB, resB := fabricated(1)
	fpC, resC := fabricated(2)

	// Price one entry to size the cap at two-and-a-bit entries.
	probe := open(t, Options{})
	if err := probe.Put(fpA, resA); err != nil {
		t.Fatal(err)
	}
	entryBytes := probe.Stats().SizeBytes

	s := open(t, Options{MaxBytes: entryBytes*2 + entryBytes/2})
	if err := s.Put(fpA, resA); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpB, resB); err != nil {
		t.Fatal(err)
	}
	// Backdate A so recency is unambiguous, then touch it via Get: B
	// becomes the coldest entry despite being written after A.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(mustPath(t, s, fpA), old, old); err != nil {
		t.Fatal(err)
	}
	older := old.Add(-time.Hour)
	if err := os.Chtimes(mustPath(t, s, fpB), older, older); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fpA); !ok || err != nil {
		t.Fatalf("Get A: ok=%v err=%v", ok, err)
	}
	if err := s.Put(fpC, resC); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(fpB); ok {
		t.Error("coldest entry B survived eviction")
	}
	if _, ok, err := s.Get(fpA); !ok || err != nil {
		t.Errorf("recently used entry A evicted: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Get(fpC); !ok || err != nil {
		t.Errorf("just-written entry C evicted: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("eviction accounting: %+v", st)
	}
	if st.SizeBytes > s.max {
		t.Errorf("size %d still over cap %d", st.SizeBytes, s.max)
	}
}

// TestEvictionLeavesSiblingNamespaces pins what happens to a rotated-out
// namespace: nothing. Open, Put and eviction walk only the current
// namespace, so a sibling's entries stay on disk however far over the
// cap the current one runs, until GC removes them.
func TestEvictionLeavesSiblingNamespaces(t *testing.T) {
	root := t.TempDir()
	stale := filepath.Join(root, "v1-s2-000000000000", "aa", strings.Repeat("a", 64)+".json")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(root, Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := byte(0); seed < 3; seed++ {
		if err := s.Put(fabricated(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Errorf("eviction accounting: %+v", st)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Errorf("sibling namespace's entry touched: %v", err)
	}
}

// TestGCRemovesOnlyStaleNamespaces: GC removes a rotated-out namespace
// and says so, and leaves the current namespace's entries, a file and a
// directory not named like a namespace where they are.
func TestGCRemovesOnlyStaleNamespaces(t *testing.T) {
	root := t.TempDir()
	stale := filepath.Join(root, "v2-s2-0123456789ab")
	if err := os.MkdirAll(filepath.Join(stale, "aa"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "aa", strings.Repeat("a", 64)+".bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, keep := range []string{"notes", "vendor"} {
		if err := os.Mkdir(filepath.Join(root, keep), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "v1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, res := fabricated(1)
	if err := s.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	removed, err := GC(root)
	if err != nil || !reflect.DeepEqual(removed, []string{"v2-s2-0123456789ab"}) {
		t.Fatalf("GC = %q, %v; want the stale namespace alone", removed, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale namespace still there: %v", err)
	}
	for _, keep := range []string{"notes", "vendor", "v1"} {
		if _, err := os.Stat(filepath.Join(root, keep)); err != nil {
			t.Errorf("%s: %v", keep, err)
		}
	}
	if _, ok, err := s.Get(fp); !ok || err != nil {
		t.Errorf("live entry after GC: ok=%v err=%v", ok, err)
	}
}

// TestUnserializableResultDegrades: every way Put can fail — a result
// without a report, a report carrying NaN (the payload form refuses
// it), a malformed fingerprint, a
// filesystem that refuses the shard directory, a rename that cannot
// land — must fail cleanly: counted exactly once, no entry, no temp
// file left behind. The sweep integration turns this into "keep the
// in-memory result, lose persistence for the point".
func TestUnserializableResultDegrades(t *testing.T) {
	for _, tc := range []struct {
		name string
		// arm breaks one step of Put and returns the inputs to Put.
		arm func(t *testing.T, s *Store) (string, system.Result)
	}{
		{"no-report", func(t *testing.T, s *Store) (string, system.Result) {
			fp, res := fabricated(0)
			res.Obs = nil
			return fp, res
		}},
		{"nan", func(t *testing.T, s *Store) (string, system.Result) {
			fp, res := fabricated(0)
			res.Obs.Utilization = math.NaN()
			return fp, res
		}},
		{"malformed-fingerprint", func(t *testing.T, s *Store) (string, system.Result) {
			_, res := fabricated(0)
			return "../escape", res
		}},
		{"shard-parent-is-a-file", func(t *testing.T, s *Store) (string, system.Result) {
			if err := os.Remove(s.dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return fabricated(0)
		}},
		{"entry-path-is-a-directory", func(t *testing.T, s *Store) (string, system.Result) {
			// Past CreateTemp: the rename fails, so the deferred
			// cleanup is what removes the temp file.
			fp, res := fabricated(0)
			path, _ := s.path(fp)
			if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			return fp, res
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, Options{})
			fp, res := tc.arm(t, s)
			if err := s.Put(fp, res); err == nil {
				t.Fatal("Put succeeded")
			}
			if _, ok, _ := s.Get(fp); ok {
				t.Error("failed Put left a readable entry")
			}
			st := s.Stats()
			if st.PutErrors != 1 || st.Puts != 0 || st.Entries != 0 {
				t.Errorf("degrade accounting: %+v", st)
			}
			_ = filepath.WalkDir(filepath.Dir(s.dir), func(path string, d os.DirEntry, err error) error {
				if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
					t.Errorf("temp file left behind: %s", path)
				}
				return nil
			})
		})
	}
}

// TestReopenSeesEntriesAndSize: a second handle on the same directory
// serves the first handle's entries and prices them for the cap.
func TestReopenSeesEntriesAndSize(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, res := fabricated(3)
	if err := s1.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get(fp); !ok || err != nil {
		t.Fatalf("reopened store misses persisted entry: ok=%v err=%v", ok, err)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.SizeBytes != s1.Stats().SizeBytes {
		t.Errorf("reopen scan: %+v, want the persisted entry priced", st)
	}
}

// TestVersionNamespaceShape pins the namespace rule documented in
// DESIGN.md: one version, the store's format revision.
func TestVersionNamespaceShape(t *testing.T) {
	v := Version()
	if v != "v5" {
		t.Fatalf("Version() = %q, want v5", v)
	}
	s := open(t, Options{})
	if filepath.Base(s.Dir()) != v {
		t.Errorf("store dir %q not under version namespace %q", s.Dir(), v)
	}
}
