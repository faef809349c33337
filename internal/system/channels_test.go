package system

import (
	"bytes"
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/obs"
)

// TestChannelsOneIsSeedEquivalent is the multi-channel refactor's
// regression gate: an explicit Channels=1 run must be deep-equal to the
// defaulted (pre-refactor) configuration on every design — the
// generalised wiring reduces exactly to the single-SDRAM system.
func TestChannelsOneIsSeedEquivalent(t *testing.T) {
	for _, d := range Designs() {
		base := Config{
			App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
			Cycles: 30_000, PriorityDemand: true, SampleEvery: 5_000,
		}
		explicit := base
		explicit.Channels = 1
		a, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(explicit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Channels=1 diverges from the defaulted config", d)
		}
		if len(a.Obs.Memory.Channels) != 0 || a.Obs.Memory.Imbalance != nil {
			t.Errorf("%s: single-channel report carries multi-channel fields", d)
		}
	}
}

// TestTwoChannelCheckedRun is the tentpole acceptance run: the scaled
// Blu-ray app on two channels, under the full invariant layer, must
// complete clean with balanced per-channel stats.
func TestTwoChannelCheckedRun(t *testing.T) {
	res, err := Run(Config{
		App: appmodel.BluRay2(), Gen: dram.DDR2, Design: GSSSAGM,
		Channels: 2, Cycles: 40_000, PriorityDemand: true,
		Checked: true, SampleEvery: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Obs.Violations); n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
	if err := res.Obs.Validate(); err != nil {
		t.Fatal(err)
	}
	chans := res.Obs.Memory.Channels
	if len(chans) != 2 {
		t.Fatalf("report carries %d channel entries, want 2", len(chans))
	}
	var data int64
	for _, cs := range chans {
		if cs.DataCycles <= 0 {
			t.Errorf("channel %d moved no data", cs.Channel)
		}
		if cs.Completions > cs.Splits {
			t.Errorf("channel %d completed %d of %d splits", cs.Channel, cs.Completions, cs.Splits)
		}
		data += cs.DataCycles
	}
	if agg := res.Device.DataCycles; agg != data {
		t.Errorf("per-channel data cycles sum to %d, aggregate says %d", data, agg)
	}
	if imb := res.Obs.Memory.Imbalance; imb == nil || *imb < 1 || *imb > 1.5 {
		t.Errorf("channel imbalance %v outside the balanced band [1,1.5]", imb)
	}
	if res.Utilization <= 0.3 {
		t.Errorf("two-channel scaled app utilization %v suspiciously low", res.Utilization)
	}
}

// TestFourChannelXORCheckedRun covers the second scheme and the largest
// scaled model: four quadrants, four corner ports, row-XOR interleaving.
func TestFourChannelXORCheckedRun(t *testing.T) {
	res, err := Run(Config{
		App: appmodel.QuadDTV(), Gen: dram.DDR2, Design: GSSSAGMSTI,
		Channels: 4, Scheme: mapping.ChannelThenBankXOR,
		Cycles: 25_000, PriorityDemand: true, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Obs.Violations); n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
	if len(res.Obs.Memory.Channels) != 4 {
		t.Fatalf("want 4 channel entries, got %d", len(res.Obs.Memory.Channels))
	}
	for _, cs := range res.Obs.Memory.Channels {
		if cs.Splits == 0 {
			t.Errorf("channel %d received no traffic under XOR interleaving", cs.Channel)
		}
	}
}

// TestChannelsExceedPortsRejected: the channel count is bounded by the
// app model's memory ports, at construction time.
func TestChannelsExceedPortsRejected(t *testing.T) {
	_, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR2, Channels: 2})
	if err == nil {
		t.Fatal("bluray (one memory port) accepted Channels=2")
	}
	_, err = New(Config{App: appmodel.BluRay2(), Gen: dram.DDR2, Channels: 3, Scheme: mapping.ChannelThenBankXOR})
	if err == nil {
		t.Fatal("XOR scheme accepted a non-power-of-two channel count")
	}
}

// TestMultiChannelDeterminism: the multi-channel wiring keeps the
// repo-wide bit-for-bit reproducibility guarantee.
func TestMultiChannelDeterminism(t *testing.T) {
	cfg := Config{
		App: appmodel.BluRay2(), Gen: dram.DDR2, Design: GSSSAGM,
		Channels: 2, Cycles: 20_000, PriorityDemand: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical multi-channel runs diverged")
	}
}

// TestMemoryAggregateIsFoldOfChannels checks the report's flat memory
// fields against its own per-channel breakdown on unchecked runs (checked
// mode compares both against the devices, never against each other):
// each bank index sums over the channels, the sink high-water mark is
// the worst channel's, the stream classification sums — and a
// one-channel report, whose aggregate is its single device, serialises
// neither `channels` nor `imbalance`.
func TestMemoryAggregateIsFoldOfChannels(t *testing.T) {
	for _, cfg := range []Config{
		{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM},
		{App: appmodel.BluRay2(), Gen: dram.DDR2, Design: GSSSAGM, Channels: 2},
		{App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: GSSSAGM, Channels: 4, Subarrays: 4, Scheme: mapping.ChannelThenBankXOR},
	} {
		cfg.Cycles, cfg.PriorityDemand = 20_000, true
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.RunTo(cfg.Cycles)
		mem := r.Finish().Obs.Memory
		if cfg.Channels <= 1 {
			var buf bytes.Buffer
			if err := obs.EncodeJSON(&buf, &obs.Report{Memory: mem}); err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(buf.Bytes(), []byte(`"channels"`)) || bytes.Contains(buf.Bytes(), []byte(`"imbalance"`)) {
				t.Errorf("%s: one-channel report serialises multi-channel fields", cfg.App.Name)
			}
			for i, b := range r.chans[0].dev.BankCounters() {
				want := obs.BankStat{Bank: i, Activates: b.Activates, Reads: b.Reads, Writes: b.Writes,
					RowHits: b.RowHits, Precharges: b.Precharges, AutoPre: b.AutoPre}
				if mem.Banks[i] != want {
					t.Errorf("%s bank %d: report %+v, device %+v", cfg.App.Name, i, mem.Banks[i], want)
				}
			}
			continue
		}
		if len(mem.Channels) != cfg.Channels || mem.Imbalance == nil {
			t.Fatalf("%s: %d channel entries, imbalance %v", cfg.App.Name, len(mem.Channels), mem.Imbalance)
		}
		banks := make([]obs.BankStat, len(mem.Banks))
		var stream obs.StreamQuality
		hwm := 0
		for _, cs := range mem.Channels {
			for i, b := range cs.Banks {
				banks[i].Bank = i
				banks[i].Activates += b.Activates
				banks[i].Reads += b.Reads
				banks[i].Writes += b.Writes
				banks[i].RowHits += b.RowHits
				banks[i].Precharges += b.Precharges
				banks[i].AutoPre += b.AutoPre
			}
			stream.RowHits += cs.Stream.RowHits
			stream.Interleaves += cs.Stream.Interleaves
			stream.Conflicts += cs.Stream.Conflicts
			stream.Contentions += cs.Stream.Contentions
			hwm = max(hwm, cs.SinkReadyHWM)
		}
		if !reflect.DeepEqual(mem.Banks, banks) {
			t.Errorf("%s: Banks %+v is not the per-channel sum %+v", cfg.App.Name, mem.Banks, banks)
		}
		if *mem.Stream != stream || stream.RowHits == 0 {
			t.Errorf("%s: Stream %+v, per-channel sum %+v", cfg.App.Name, *mem.Stream, stream)
		}
		if mem.SinkReadyHWM != hwm || hwm == 0 {
			t.Errorf("%s: SinkReadyHWM %d, worst channel %d", cfg.App.Name, mem.SinkReadyHWM, hwm)
		}
	}
}
