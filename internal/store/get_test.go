package store

import (
	"encoding/json"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/system"
)

// tableIResults runs two Table I points: different apps, generations
// and designs, so their entries differ in every string and slice.
func tableIResults(t testing.TB) [2]system.Result {
	t.Helper()
	var out [2]system.Result
	for i, cfg := range []system.Config{
		{App: appmodel.BluRay(), Gen: dram.DDR2, Design: system.GSSSAGM, Cycles: 2000, Seed: 1},
		{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.Conv, Cycles: 2000, Seed: 1},
	} {
		res, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestGetDoesNotAliasReadBuffer: Get reads into a recycled buffer, so a
// result it returned must keep its values — strings included — after
// the next Get reuses that buffer for another entry.
func TestGetDoesNotAliasReadBuffer(t *testing.T) {
	s := open(t, Options{})
	res := tableIResults(t)
	fps := [2]string{strings.Repeat("a", 64), strings.Repeat("b", 64)}
	for i := range res {
		if err := s.Put(fps[i], res[i]); err != nil {
			t.Fatal(err)
		}
	}
	a, ok, err := s.Get(fps[0])
	if err != nil || !ok {
		t.Fatalf("Get A: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Get(fps[1]); err != nil || !ok {
		t.Fatalf("Get B: ok=%v err=%v", ok, err)
	}
	want, _ := json.Marshal(res[0])
	got, _ := json.Marshal(a)
	if string(got) != string(want) {
		t.Error("A changed when B was read into the same buffer")
	}
}

// TestGetHitAllocs: a hit allocates per decoded object — a string copy
// of the payload, each slice and pointer of the report, the result's
// per-core list — plus the open and the recency touch, not per byte read or twice per slice. Under
// the race detector the pool misses at random, so the count is not
// checked there.
func TestGetHitAllocs(t *testing.T) {
	s := open(t, Options{})
	fp := strings.Repeat("c", 64)
	if err := s.Put(fp, tableIResults(t)[0]); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, ok, err := s.Get(fp); !ok || err != nil {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	if got > 16 && !raceEnabled {
		t.Errorf("a store hit allocates %.1f times, want at most 16", got)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	fp := strings.Repeat("d", 64)
	if err := s.Put(fp, tableIResults(b)[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, ok, err := s.Get(fp); !ok || err != nil {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}

// TestNilAndEmptySlicesStayApart: a slice decodes in place only when it
// has elements; an empty one must still come back empty, not nil.
func TestNilAndEmptySlicesStayApart(t *testing.T) {
	s := open(t, Options{})
	for i, nis := range [][]obs.NI{nil, {}, {{}}} {
		fp, res := fabricated(byte(i))
		res.Obs.NIs = nis
		if err := s.Put(fp, res); err != nil {
			t.Fatal(err)
		}
		back, ok, err := s.Get(fp)
		if err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		if got := back.Obs.NIs; (got == nil) != (nis == nil) || len(got) != len(nis) {
			t.Errorf("NIs %#v came back as %#v", nis, got)
		}
	}
}
