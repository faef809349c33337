package scenario

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"aanoc/internal/appmodel"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz/")

// corpusSeeds are the committed FuzzSpecParse starting points: the two
// accept paths (a builtin app's spec, a generated spec with a run
// block) and one representative of each reject class, so coverage
// starts on both sides of every Parse branch.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	var builtin, generated bytes.Buffer
	if err := FromApp(appmodel.BluRay()).WriteJSON(&builtin); err != nil {
		t.Fatal(err)
	}
	if err := Generate(1, GenOptions{}).WriteJSON(&generated); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"builtin":       builtin.Bytes(),
		"generated":     generated.Bytes(),
		"syntax":        []byte(`{"name":`),
		"unknown-field": []byte(`{"name":"x","bogus":1}`),
		"type-mismatch": []byte(`{"name":3}`),
		"trailing":      append(append([]byte{}, builtin.Bytes()...), []byte("{}")...),
		"no-ports":      []byte(`{"name":"x","mesh":{"width":3,"height":3}}`),
		"bad-run":       []byte(`{"name":"x","mesh":{"width":2,"height":2},"memPorts":[{"x":0,"y":0}],"clocks":{"ddr1":200,"ddr2":333,"ddr3":667},"cores":[{"name":"c","at":{"x":1,"y":1},"streams":[{"name":"s","class":"media","readFrac":0.5,"beats":[8],"loadFrac":0.1,"rowRange":256}]}],"run":{"generation":9}}`),
		// The three ways App.Validate finds a position taken twice, and
		// an accepted mesh far larger than its ports and cores.
		"port-collision": []byte(`{"name":"x","mesh":{"width":2,"height":2},"memPorts":[{"x":0,"y":0},{"x":0,"y":0}],"clocks":{"ddr1":200,"ddr2":333,"ddr3":667},"cores":[{"name":"c","at":{"x":1,"y":1},"streams":[{"name":"s","class":"media","readFrac":0.5,"beats":[8],"loadFrac":0.1,"rowRange":256}]}]}`),
		"core-on-port":   []byte(`{"name":"x","mesh":{"width":2,"height":2},"memPorts":[{"x":0,"y":0}],"clocks":{"ddr1":200,"ddr2":333,"ddr3":667},"cores":[{"name":"c","at":{"x":0,"y":0},"streams":[{"name":"s","class":"media","readFrac":0.5,"beats":[8],"loadFrac":0.1,"rowRange":256}]}]}`),
		"core-collision": []byte(`{"name":"x","mesh":{"width":2,"height":2},"memPorts":[{"x":0,"y":0}],"clocks":{"ddr1":200,"ddr2":333,"ddr3":667},"cores":[{"name":"c","at":{"x":1,"y":1},"streams":[{"name":"s","class":"media","readFrac":0.5,"beats":[8],"loadFrac":0.1,"rowRange":256}]},{"name":"d","at":{"x":1,"y":1},"streams":[{"name":"t","class":"media","readFrac":0.5,"beats":[8],"loadFrac":0.1,"rowRange":256}]}]}`),
		"huge-mesh":      []byte(`{"name":"x","mesh":{"width":1048576,"height":1048576},"memPorts":[{"x":0,"y":0}],"clocks":{"ddr1":200,"ddr2":333,"ddr3":667},"cores":[{"name":"c","at":{"x":1048575,"y":1048575},"streams":[{"name":"s","class":"media","readFrac":0.5,"beats":[8],"loadFrac":0.1,"rowRange":256}]}]}`),
	}
}

// FuzzSpecParse pins the never-panic contract: any input either parses
// into a spec that validates and round-trips, or fails with an error
// wrapping one of the package sentinels — nothing else, and no panics.
func FuzzSpecParse(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	sentinels := []error{ErrParse, ErrSpec, ErrBadGeneration, ErrBadChannels,
		ErrBadScheme, ErrUnknownScheduler, ErrBadSampleEvery}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			for _, sentinel := range sentinels {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("Parse returned a non-sentinel error: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("emit: %v", err)
		}
		back, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("accepted spec does not reparse: %v", err)
		}
		if back.Hash() != s.Hash() {
			t.Fatal("content hash changed across emit/reparse")
		}
	})
}

// TestFuzzCorpus maintains the committed seed corpus in the `go test
// fuzz v1` file format: -update rewrites it from corpusSeeds, a normal
// run verifies every seed file is present and carries its input.
func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSpecParse")
	for name, data := range corpusSeeds(t) {
		// The corpus encodes []byte arguments as Go byte-slice literals.
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, "seed-"+name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing corpus seed (run with -update to create): %v", err)
		}
		if string(got) != body {
			t.Errorf("corpus seed %s is stale; run with -update and review the diff", name)
		}
	}
}
