package system

import (
	"bytes"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/trace"
)

// captureTrace records a short run and returns the parsed records.
func captureTrace(t *testing.T, d Design) []trace.Record {
	t.Helper()
	return captureTraceCycles(t, d, 30_000)
}

func captureTraceCycles(t *testing.T, d Design, cycles int64) []trace.Record {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cfg := Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
		Cycles: cycles, Seed: 11, PriorityDemand: true, Trace: w,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() == 0 || res.Generated != w.Count() {
		t.Fatalf("trace count %d vs generated %d", w.Count(), res.Generated)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestTraceCaptureMatchesGeneration(t *testing.T) {
	records := captureTrace(t, SDRAMAware)
	cores := map[string]bool{}
	demand := 0
	for _, r := range records {
		cores[r.Core] = true
		if r.Class == "demand" {
			demand++
			if !r.Priority {
				t.Fatal("demand record lost its priority flag")
			}
		}
	}
	if len(cores) < 6 {
		t.Errorf("trace covers %d cores, want most of the 8", len(cores))
	}
	if demand == 0 {
		t.Error("no demand requests captured")
	}
}

func TestReplayServesEveryRecordedRequest(t *testing.T) {
	records := captureTrace(t, SDRAMAware)
	for _, d := range []Design{Conv, GSS, GSSSAGM} {
		cfg := Config{
			App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
			Cycles: 120_000, Seed: 11, Replay: records,
			Warmup: 1, // count every completion
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generated != int64(len(records)) {
			t.Errorf("%s: replayed %d of %d requests", d, res.Generated, len(records))
		}
		if res.Completed < res.Generated*95/100 {
			t.Errorf("%s: completed %d of %d replayed requests", d, res.Completed, res.Generated)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	records := captureTrace(t, SDRAMAware)
	run := func() Result {
		res, err := Run(Config{
			App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM,
			Cycles: 60_000, Seed: 5, Replay: records,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !sameResult(a, b) {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
}
