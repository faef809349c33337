package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// valid returns a minimal report that passes Validate.
func valid() *Report {
	return &Report{
		SchemaVersion: Schema,
		Design:        "GSS", App: "bluray", Gen: 2, ClockMHz: 333,
		Cycles: 1000, Seed: 7,
		Generated: 10, Completed: 8, Stalled: 3,
		Utilization: 0.5,
		Network: Network{Request: MeshStats{
			BusyCycles: 40,
			Links: []LinkStat{{
				Router: "(0,0)", Port: "east",
				BusyCycles: 40, Grants: 5, Utilization: 0.04,
			}},
		}},
		NIs:    []NI{{Core: "cpu", QueueFlitsHWM: 12, StallCycles: 3, Completed: 8, Beats: 64, LatencySum: 800}},
		Memory: Memory{Banks: []BankStat{{Bank: 0, Activates: 2, Reads: 4, RowHits: 2}}},
	}
}

func TestWriteJSONParseRoundTrip(t *testing.T) {
	r := valid()
	r.SampleEvery = 100
	r.Samples = []Sample{
		{Cycle: 100, Utilization: 0.4, Outstanding: 3, QueueFlits: 9, MemReady: 1},
		{Cycle: 200, Utilization: 0.6, Outstanding: 2, QueueFlits: 4, MemReady: 0},
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Error("EncodeJSON output not newline-terminated")
	}
	back, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Design != r.Design || back.Stalled != r.Stalled ||
		len(back.Samples) != 2 || back.Samples[1].QueueFlits != 4 ||
		back.Memory.Banks[0].RowHits != 2 ||
		back.Network.Request.Links[0].Grants != 5 {
		t.Errorf("round trip lost content: %+v", back)
	}
}

func TestOmitEmptySampling(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, valid()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "sampleEvery") || strings.Contains(out, "samples") {
		t.Error("sampling fields serialized despite sampling off")
	}
}

// TestImbalanceBalancedSerialized pins the omitempty bugfix: a
// perfectly balanced (1.0) or idle (0) imbalance must still appear in
// the JSON whenever the channel breakdown does — omitempty on the old
// plain float64 erased exactly those values.
func TestImbalanceBalancedSerialized(t *testing.T) {
	for _, imb := range []float64{0, 1} {
		imb := imb
		r := valid()
		banks := []BankStat{{Bank: 0, Activates: 1, Reads: 1}}
		r.Memory.Channels = []ChannelStat{
			{Channel: 0, Port: "(0,0)", Banks: banks},
			{Channel: 1, Port: "(3,3)", Banks: banks},
		}
		r.Memory.Imbalance = &imb
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"imbalance"`) {
			t.Errorf("imbalance %v dropped from the multi-channel JSON", imb)
		}
		back, err := DecodeJSON(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if back.Memory.Imbalance == nil || *back.Memory.Imbalance != imb {
			t.Errorf("imbalance %v did not round-trip: %v", imb, back.Memory.Imbalance)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"no cycles", func(r *Report) { r.Cycles = 0 }, "no cycles"},
		{"missing identity", func(r *Report) { r.Design = "" }, "identity"},
		{"utilization above one", func(r *Report) { r.Utilization = 1.5 }, "outside [0,1]"},
		{"completed exceeds generated", func(r *Report) { r.Completed = r.Generated + 1 }, "exceeds"},
		{"no links", func(r *Report) { r.Network.Request.Links = nil }, "links"},
		{"NI completions do not fold", func(r *Report) {
			r.NIs = append(r.NIs, NI{Core: "dsp", Completed: 1})
		}, "the NIs completed 9 requests, the run 8"},
		{"link busy beyond run", func(r *Report) {
			r.Network.Response.Links = []LinkStat{{Router: "(1,0)", Port: "local", BusyCycles: r.Cycles + 1}}
		}, "busy 1001 cycles of a 1000-cycle run"},
		{"no banks", func(r *Report) { r.Memory.Banks = nil }, "per-bank"},
		{"samples without interval", func(r *Report) {
			r.Samples = []Sample{{Cycle: 10}}
		}, "without a sampling interval"},
		{"sample beyond run", func(r *Report) {
			r.SampleEvery = 10
			r.Samples = []Sample{{Cycle: r.Cycles + 1}}
		}, "outside run"},
		{"negative sampling interval", func(r *Report) {
			r.SampleEvery = -5
		}, "negative sampling interval"},
		{"channels without imbalance", func(r *Report) {
			r.Memory.Channels = []ChannelStat{{Channel: 0}}
		}, "missing imbalance"},
		{"imbalance without channels", func(r *Report) {
			one := 1.0
			r.Memory.Imbalance = &one
		}, "without a channel breakdown"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mut(r)
			err := r.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken report")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

// TestSchemaVersion pins the versioned-schema contract: EncodeJSON
// writes the version a report carries and changes nothing in it, and
// DecodeJSON reads the current version back.
func TestSchemaVersion(t *testing.T) {
	var buf bytes.Buffer
	r := valid()
	if err := EncodeJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schemaVersion": 3`) {
		t.Error("encoded report does not carry schemaVersion 3")
	}
	back, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != Schema {
		t.Errorf("decoded schema %d, want %d", back.SchemaVersion, Schema)
	}
	unversioned := valid()
	unversioned.SchemaVersion = 0
	if err := EncodeJSON(&buf, unversioned); err != nil || unversioned.SchemaVersion != 0 {
		t.Errorf("EncodeJSON stamped the report it wrote: v%d, err %v", unversioned.SchemaVersion, err)
	}
}

// TestDecodeRefusesOtherSchemas: a reader accepts exactly Schema and
// names both versions on any other. A current golden relabelled v2,
// one with the version cut out (v0), one from a later writer (v4), and
// the sidecar an earlier build wrote under v2 before the NI counts
// existed all get the version error, not a misreading or the NI fold's.
func TestDecodeRefusesOtherSchemas(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "gss.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJSON(golden); err != nil {
		t.Fatalf("current golden refused: %v", err)
	}
	const current = "\"schemaVersion\": 3,\n"
	relabel := func(to string) []byte {
		if !bytes.Contains(golden, []byte(current)) {
			t.Fatalf("golden does not carry %q", current)
		}
		return bytes.Replace(golden, []byte(current), []byte(to), 1)
	}
	var before Report // an earlier build's sidecar: v2, no NI counts
	if err := json.Unmarshal(relabel("\"schemaVersion\": 2,\n"), &before); err != nil {
		t.Fatal(err)
	}
	for i := range before.NIs {
		before.NIs[i].Completed, before.NIs[i].Beats, before.NIs[i].LatencySum = 0, 0, 0
	}
	early, err := json.Marshal(&before)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"v2", relabel("\"schemaVersion\": 2,\n"), "v2"},
		{"absent", relabel(""), "v0"},
		{"v4", relabel("\"schemaVersion\": 4,\n"), "v4"},
		{"v2 before NI counts", early, "v2"},
	} {
		_, err := DecodeJSON(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "v3") {
			t.Errorf("%s: DecodeJSON error %v, want one naming %s and v3", tc.name, err, tc.want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSON([]byte("{not json")); err == nil {
		t.Error("DecodeJSON accepted malformed JSON")
	}
	// Structurally valid JSON that no finished run could have produced.
	if _, err := DecodeJSON([]byte(`{"design":"GSS","app":"x","cycles":0}`)); err == nil {
		t.Error("DecodeJSON accepted an empty-run report")
	}
}

// TestSummarizeViolationsCountsDropped: the trailer after the rendered
// lines counts the violations a closing Dropped entry stands for, not
// the entry itself.
func TestSummarizeViolationsCountsDropped(t *testing.T) {
	vs := []Violation{
		{Cycle: 3, Component: "dram", Kind: "tRCD", Detail: "early"},
		{Cycle: 4, Component: "dram", Kind: "tRCD", Detail: "early"},
		Dropped(40),
	}
	if n := TotalViolations(vs); n != 42 {
		t.Fatalf("TotalViolations = %d, want 42", n)
	}
	if got := SummarizeViolations(vs, 1); !strings.HasSuffix(got, "... and 41 more violations\n") {
		t.Errorf("summary with one line:\n%s", got)
	}
	if got := SummarizeViolations(vs, 0); !strings.Contains(got, "violations-dropped: 40 more violations counted but not recorded") {
		t.Errorf("full summary:\n%s", got)
	}
	if n := TotalViolations(vs[:2]); n != 2 {
		t.Errorf("TotalViolations without a dropped entry = %d, want 2", n)
	}
}
