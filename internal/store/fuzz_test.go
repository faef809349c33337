package store

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/system"
)

// FuzzStoreEntry holds the entry decoder, the store's input boundary, to
// its contract on arbitrary bytes:
//
//   - decode never panics and fails only with an error wrapping
//     ErrCorrupt, which Get turns into "remove it and re-simulate";
//   - the payload reader allocates no more than a fixed multiple of its
//     input (a forged length prefix is refused before it allocates), and
//     a payload it accepts re-encodes to one that decodes deep-equal.
func FuzzStoreEntry(f *testing.F) {
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	// One real entry carrying every optional report part a run can fill:
	// channels and imbalance, a zoo scheduler, samples, workload, checked.
	res, err := system.Run(system.Config{
		App: appmodel.BluRay2(), Channels: 2, Gen: dram.DDR2, Design: system.GSSSAGM,
		Scheduler: memctrl.SchedDPQ, Cycles: 2000, Seed: 7,
		SampleEvery: 500, WorkloadStats: true, Checked: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	fp, _ := fabricated(0)
	if err := s.Put(fp, res); err != nil {
		f.Fatal(err)
	}
	path, _ := s.path(fp)
	entry, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	header, _, _ := bytes.Cut(entry, []byte{'\n'})
	flipped := bytes.Clone(entry)
	flipped[len(flipped)/2] ^= 0xff
	for _, seed := range [][]byte{
		entry, entry[:len(entry)-1], entry[:len(header)+1], entry[:len(entry)/2],
		flipped, []byte("not json at all"),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := s.decode(fp, data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode failed outside ErrCorrupt: %v", err)
		}
		// The payload reader on its own, so inputs past a header (and the
		// seeds' real payload) reach it without a matching sha256.
		payload := data
		if _, after, ok := bytes.Cut(data, []byte{'\n'}); ok {
			payload = after
		}
		var got obs.Report
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := obs.Plan.Decode(payload, reflect.ValueOf(&got).Elem())
		runtime.ReadMemStats(&after)
		// A slice element takes at least one payload byte per 16 bytes of
		// memory, slices nest at most two deep, and the pointers a
		// one-byte flag allocates are a fixed cost.
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+16<<10); n > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(payload), n, bound)
		}
		if err != nil {
			return
		}
		again, err := obs.Plan.Append(nil, reflect.ValueOf(&got).Elem())
		if err != nil {
			t.Fatalf("an accepted payload does not re-encode: %v", err)
		}
		var back obs.Report
		if err := obs.Plan.Decode(again, reflect.ValueOf(&back).Elem()); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("re-encoded payload decodes differently (err %v)", err)
		}
	})
}
