package system_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/store"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

// reportBytes is a run's report as the CLIs' -json sidecars write it.
func reportBytes(t *testing.T, res system.Result) []byte {
	t.Helper()
	if res.Obs == nil {
		return nil
	}
	var b bytes.Buffer
	if err := obs.EncodeJSON(&b, res.Obs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// entryBytes is the result-store entry a Put of res writes, header and
// payload, under a fixed fingerprint.
func entryBytes(t *testing.T, res system.Result) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(strings.Repeat("0", 64), res); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*", "*.bin"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store holds %v (%v), want one entry", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireCanonicalRunEqual runs cfg and its canonical form and requires
// the restamped canonical run to be the point's own run: the same error,
// the same report bytes and the same store entry.
func requireCanonicalRunEqual(t *testing.T, name string, cfg system.Config) {
	t.Helper()
	canon, differs := cfg.Canonical()
	if !differs {
		t.Fatalf("%s: Canonical() does not differ from the config", name)
	}
	if again, more := canon.Canonical(); more || again.Design != canon.Design || again.PCT != canon.PCT {
		t.Fatalf("%s: Canonical() is not idempotent: %v/%d then %v/%d", name, canon.Design, canon.PCT, again.Design, again.PCT)
	}
	own, ownErr := system.Run(cfg)
	twin, twinErr := system.Run(canon)
	if (ownErr == nil) != (twinErr == nil) || ownErr != nil && ownErr.Error() != twinErr.Error() {
		t.Fatalf("%s: Run = %v, canonical Run = %v", name, ownErr, twinErr)
	}
	if ownErr != nil {
		return
	}
	derived, err := twin.Restamp(cfg.Design)
	if err != nil {
		t.Fatalf("%s: Restamp: %v", name, err)
	}
	if derived.Obs == twin.Obs {
		t.Fatalf("%s: Restamp shares the twin's report", name)
	}
	if twin.Obs.Design != canon.Design.String() {
		t.Fatalf("%s: Restamp renamed the twin's report to %q", name, twin.Obs.Design)
	}
	if !bytes.Equal(reportBytes(t, own), reportBytes(t, derived)) {
		t.Fatalf("%s: report of %v differs from the restamped %v run", name, cfg.Design, canon.Design)
	}
	if !bytes.Equal(entryBytes(t, own), entryBytes(t, derived)) {
		t.Fatalf("%s: store entry of %v differs from the restamped %v run", name, cfg.Design, canon.Design)
	}
}

// TestCanonicalRunsEqual pins Config.Canonical to fresh runs: for every
// configuration whose canonical form differs from it, the canonical run
// restamped with the point's design is byte for byte the point's own —
// the identity sweep.Run relies on to simulate Table I's GSS rows once.
func TestCanonicalRunsEqual(t *testing.T) {
	const cycles = 20_000
	t.Run("table-I", func(t *testing.T) {
		for _, app := range appmodel.Apps() {
			for _, gen := range []dram.Generation{dram.DDR1, dram.DDR2, dram.DDR3} {
				cfg := system.Config{App: app, Gen: gen, Design: system.GSS, Cycles: 50_000}
				requireCanonicalRunEqual(t, app.Name+"/"+gen.String(), cfg)
			}
		}
	})
	t.Run("knobs", func(t *testing.T) {
		base := system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Cycles: cycles, Seed: 5}
		var cfgs []system.Config
		for _, d := range []system.Design{system.ConvPFS, system.SDRAMAwarePFS} {
			c := base
			c.Design = d
			cfgs = append(cfgs, c)
		}
		for pct := 1; pct <= 6; pct++ {
			for _, d := range []system.Design{system.GSS, system.GSSSAGM, system.GSSSAGMSTI} {
				c := base
				c.Design, c.PCT = d, pct
				if _, differs := c.Canonical(); differs {
					cfgs = append(cfgs, c)
				}
			}
		}
		for _, c := range cfgs {
			requireCanonicalRunEqual(t, c.Design.String(), c)
		}
	})
	t.Run("checked", func(t *testing.T) {
		for _, d := range []system.Design{system.ConvPFS, system.GSS} {
			cfg := system.Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: d, PCT: 5, Cycles: cycles, Checked: true}
			requireCanonicalRunEqual(t, d.String(), cfg)
		}
	})
	t.Run("drawn", func(t *testing.T) {
		r := rand.New(rand.NewSource(38))
		for n := 0; n < 20; {
			cfg := system.DrawConfig(r)
			cfg.PriorityDemand, cfg.Replay = false, nil
			if cfg.Cycles == 0 || cfg.Cycles > 5000 {
				cfg.Cycles = 5000
			}
			if _, differs := cfg.Canonical(); !differs {
				continue
			}
			n++
			requireCanonicalRunEqual(t, cfg.App.Name, cfg)
		}
	})
}

// TestCanonicalNeedsNoPriority is the negative leg: with priority
// traffic the PCT acts, so GSS must not collapse to [4] — and on a
// Table II point their runs do differ.
func TestCanonicalNeedsNoPriority(t *testing.T) {
	cfg := system.Config{App: appmodel.DualDTV(), Gen: dram.DDR2, Design: system.GSS, PriorityDemand: true, Cycles: 20_000}
	if _, differs := cfg.Canonical(); differs {
		t.Fatal("Canonical() rewrites a config with priority demand")
	}
	replay := cfg
	replay.PriorityDemand = false
	replay.Replay = []trace.Record{{Core: cfg.App.Cores[0].Name, Kind: "R", Class: "media", Beats: 4}}
	if _, differs := replay.Canonical(); differs {
		t.Fatal("Canonical() rewrites a replay config")
	}
	bad := system.Config{Design: system.GSS, PCT: 9}
	if canon, _ := bad.Canonical(); canon.PCT != 9 {
		t.Fatalf("Canonical() rewrote an invalid PCT to %d", canon.PCT)
	}
	differ := false
	for _, app := range appmodel.Apps() {
		cfg.App = app
		ref := cfg
		ref.Design = system.SDRAMAware
		gss, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		four, err := system.Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		restamped, err := four.Restamp(system.GSS)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, gss), reportBytes(t, restamped)) {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("GSS and [4] ran identically on every Table II point: the PCT never acted")
	}
}
