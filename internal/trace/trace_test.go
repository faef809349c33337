package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/traffic"
)

func rec(cycle int64, core string, beats int) Record {
	return Record{Cycle: cycle, Core: core, Kind: "R", Class: "media", Bank: 1, Row: 2, Col: 3, Beats: beats}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Record{rec(0, "a", 8), rec(5, "b", 16), rec(7, "a", 4)}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Record{
		{Cycle: -1, Core: "a", Kind: "R", Class: "media", Beats: 1},
		{Cycle: 0, Core: "", Kind: "R", Class: "media", Beats: 1},
		{Cycle: 0, Core: "a", Kind: "X", Class: "media", Beats: 1},
		{Cycle: 0, Core: "a", Kind: "R", Class: "media", Beats: 0},
		{Cycle: 0, Core: "a", Kind: "R", Class: "media", Beats: 1, Bank: -1},
		{Cycle: 0, Core: "a", Kind: "R", Class: "bulk", Beats: 1},
		{Cycle: 0, Core: "a", Kind: "R", Beats: 1}, // no class at all
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("record %d accepted: %+v", i, r)
		}
	}
}

func TestReadRejectsDecreasingCycles(t *testing.T) {
	in := `{"cycle":5,"core":"a","kind":"R","class":"media","bank":0,"row":0,"col":0,"beats":8}
{"cycle":3,"core":"a","kind":"R","class":"media","bank":0,"row":0,"col":0,"beats":8}`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("decreasing cycles accepted")
	}
}

// TestReadRejectsUnknownClass: a class noc's name table does not carry
// is an error naming the line, not a record replayed as media traffic.
func TestReadRejectsUnknownClass(t *testing.T) {
	in := `{"cycle":3,"core":"a","kind":"R","class":"media","bank":0,"row":0,"col":0,"beats":8}
{"cycle":5,"core":"a","kind":"R","class":"bulk","bank":0,"row":0,"col":0,"beats":8}`
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), `"bulk"`) {
		t.Fatalf("Read = %v, want an error naming line 2 and the class", err)
	}
}

func TestReadAllowsInterleavedCores(t *testing.T) {
	in := `{"cycle":5,"core":"a","kind":"R","class":"media","bank":0,"row":0,"col":0,"beats":8}
{"cycle":3,"core":"b","kind":"W","class":"demand","bank":0,"row":0,"col":0,"beats":8}
{"cycle":6,"core":"a","kind":"R","class":"media","bank":0,"row":0,"col":0,"beats":8}`
	recs, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	by := SplitByCore(recs)
	if len(by["a"]) != 2 || len(by["b"]) != 1 {
		t.Fatalf("split = %v", by)
	}
}

func TestRecordRequestRoundTrip(t *testing.T) {
	req := &traffic.Request{
		Kind: noc.Write, Class: noc.ClassDemand, Priority: true,
		Addr: dram.Address{Bank: 3, Row: 7, Col: 16}, Beats: 24, EndOfRow: true,
	}
	r := FromRequest(42, "cpu", req)
	back := r.toRequest()
	if back.Kind != req.Kind || back.Class != req.Class || back.Priority != req.Priority {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Addr != req.Addr || back.Beats != req.Beats || back.EndOfRow != req.EndOfRow {
		t.Fatalf("round trip lost address/payload: %+v", back)
	}
}

func TestReplayerTiming(t *testing.T) {
	rp := NewReplayer([]Record{rec(5, "a", 8), rec(10, "a", 8)})
	if rp.Tick(4, false) != nil {
		t.Fatal("replayed before recorded cycle")
	}
	if rp.Tick(5, true) != nil {
		t.Fatal("replayed while blocked")
	}
	if rp.Tick(7, false) == nil {
		t.Fatal("late replay refused")
	}
	if rp.Tick(8, false) != nil {
		t.Fatal("second record replayed early")
	}
	if rp.Tick(10, false) == nil || !rp.Done() {
		t.Fatal("replayer did not drain")
	}
	rp.OnComplete(11)
	rp.OnComplete(12)
	if rp.Outstanding != 0 {
		t.Fatalf("outstanding = %d", rp.Outstanding)
	}
}

// TestReplayerOwnsReturnedRequest pins the traffic.Source ownership
// contract on Replayer: Tick hands out the replayer's one Request, the
// next issue overwrites it, and a nil Tick leaves it untouched.
func TestReplayerOwnsReturnedRequest(t *testing.T) {
	rp := NewReplayer([]Record{rec(5, "a", 8), rec(10, "a", 24)})
	first := rp.Tick(5, false)
	if first == nil || first.Beats != 8 {
		t.Fatalf("first replay = %+v", first)
	}
	held := *first
	if rp.Tick(6, false) != nil || rp.Tick(10, true) != nil {
		t.Fatal("expected idle ticks")
	}
	if *first != held {
		t.Fatalf("a nil Tick changed the returned request: %+v -> %+v", held, *first)
	}
	second := rp.Tick(10, false)
	if second != first || first.Beats != 24 {
		t.Fatalf("second replay should overwrite the first in place: %p %+v, then %p %+v", first, held, second, second)
	}
	many := make([]Record, 101)
	for i := range many {
		many[i] = rec(0, "a", 8)
	}
	rp = NewReplayer(many)
	if avg := testing.AllocsPerRun(100, func() { rp.Tick(0, false) }); avg != 0 || rp.Issued != 101 {
		t.Errorf("Tick allocates %.2f per replayed request (%d issued), want 0", avg, rp.Issued)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(cycles []uint16, beats uint8) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		cur := int64(0)
		n := 0
		for _, c := range cycles {
			cur += int64(c % 100)
			r := rec(cur, "core", int(beats)%64+1)
			if err := w.Write(r); err != nil {
				return false
			}
			n++
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return len(got) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
