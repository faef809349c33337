package sweep

import (
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

// cfgFromBytes decodes a configuration from arbitrary fuzz input: every
// byte string maps deterministically onto some plausible config, so the
// fuzzer explores the knob space rather than the rejection path. Cycles
// stays non-negative (a negative cycle budget is not a runnable config).
func cfgFromBytes(data []byte) system.Config {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	apps := appmodel.Apps()
	designs := system.Designs()
	cfg := system.Config{
		App:              apps[int(at(0))%len(apps)],
		Gen:              dram.Generation(1 + int(at(1))%3),
		ClockMHz:         int(at(2)) * 8,
		Design:           designs[int(at(3))%len(designs)],
		PCT:              int(at(4)) % 8,
		GSSRouters:       int(at(5))%11 - 1,
		PriorityDemand:   at(6)&1 != 0,
		Cycles:           int64(at(7)) * 1000,
		Warmup:           int64(int8(at(8))), // negative exercises the sentinel
		Seed:             uint64(at(9)),
		VirtualChannels:  int(at(11)) % 4,
		AdaptiveRouting:  at(12)&1 != 0,
		SplitGranularity: int(at(15)) % 33,
		TagEveryRequest:  at(16)&1 != 0,
		SampleEvery:      int64(at(17)) * 250,
		Checked:          at(18)&1 != 0,
	}
	if p := at(19) % 4; p > 0 {
		policy := memctrl.PagePolicy(p - 1)
		cfg.PagePolicy = &policy
	}
	for i := 0; i < int(at(20))%3; i++ {
		cfg.Replay = append(cfg.Replay, trace.Record{
			Cycle: int64(i), Core: cfg.App.Cores[0].Name, Kind: "R",
			Class: "media", Bank: int(at(21)) % 4, Row: i, Col: 8 * i, Beats: 2,
		})
	}
	return cfg
}

// FuzzFingerprint checks the cache-key contract over the whole knob
// space: the key is the hash of bytes that decode to the resolved config
// (checkKey), fingerprinting is deterministic, insensitive to resolution (a config and its
// resolved form share a key, so explicit defaults cannot double-simulate
// a grid point), resolution is idempotent, and distinct resolved configs
// get distinct keys.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 0x80, 0x00, 0x06, 0x07, 0x0a, 0x01, 0x00, 0xf6, 0x2a,
		0x0f, 0x03, 0x01, 0x7f, 0x0f, 0x20, 0x01, 0x04, 0x01, 0x01, 0x03, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := cfgFromBytes(data)

		fp, ok := Fingerprint(cfg)
		if !ok {
			t.Fatal("traceless config reported uncacheable")
		}
		checkKey(t, cfg)
		if fp2, _ := Fingerprint(cfg); fp2 != fp {
			t.Fatalf("fingerprint not deterministic: %s vs %s", fp, fp2)
		}
		resolved := cfg.Resolved()
		if fpR, _ := Fingerprint(resolved); fpR != fp {
			t.Fatalf("resolution changed the fingerprint: %s vs %s", fp, fpR)
		}
		if again := resolved.Resolved(); !reflect.DeepEqual(resolved, again) {
			t.Fatalf("Resolved not idempotent:\n%+v\nvs\n%+v", resolved, again)
		}
		// A genuinely different resolved config must key differently.
		mut := cfg
		mut.Cycles = resolved.Cycles + 1
		if fpM, _ := Fingerprint(mut); fpM == fp {
			t.Fatal("distinct cycle budgets share a fingerprint")
		}
	})
}
