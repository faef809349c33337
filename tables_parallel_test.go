package aanoc

// Parallel-vs-serial equivalence for every table/figure driver: the
// formatted output — the artifact the paper comparison rests on — must
// be byte-identical whether a grid runs on one worker or many. The
// tables-*-serial legs of cmd/aanoc's TestCorpus check the same property
// end-to-end through the aanoc tables command.

import (
	"os"
	"reflect"
	"strconv"
	"testing"
)

// driverCycles keeps the 2x full-driver runs affordable; the
// AANOC_TEST_CYCLES knob lets CI shrink (or grow) them.
func driverCycles() int64 {
	if s := os.Getenv("AANOC_TEST_CYCLES"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 2000
}

func TestTableDriversParallelByteIdentical(t *testing.T) {
	drivers := []struct {
		name string
		run  func(TableOptions) ([]Row, error)
	}{
		{"TableI", TableI},
		{"TableII", TableII},
		{"TableIII", TableIII},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			serialOpts := TableOptions{Cycles: driverCycles(), Parallel: 1}
			parallelOpts := TableOptions{Cycles: driverCycles(), Parallel: 4}
			serial, err := d.run(serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := d.run(parallelOpts)
			if err != nil {
				t.Fatal(err)
			}
			a, b := FormatRows(serial), FormatRows(parallel)
			if a != b {
				t.Fatalf("%s output differs between -parallel 1 and 4:\n--- serial\n%s--- parallel\n%s", d.name, a, b)
			}
		})
	}
}

func TestFig8ParallelByteIdentical(t *testing.T) {
	serial, err := Fig8("sdtv", 1, 200, TableOptions{Cycles: driverCycles(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig8("sdtv", 1, 200, TableOptions{Cycles: driverCycles(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Fig8 diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestTableVParallelByteIdentical(t *testing.T) {
	serial, err := TableV(TableOptions{Cycles: driverCycles(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TableV(TableOptions{Cycles: driverCycles(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("TableV diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestFormatRowsGolden pins the exact rendering FormatRows produces —
// the strings.Builder rewrite (and any future one) must not move a
// byte, since the CI determinism diff and EXPERIMENTS.md depend on it.
func TestFormatRowsGolden(t *testing.T) {
	rows := []Row{{
		App: "bluray", Gen: 2, ClockMHz: 333, Design: GSSSAGM,
		Utilization: 0.8125, UsefulUtilization: 0.75, LatAll: 123.4,
		LatDemand: 56.7, LatPriority: 89.1, WasteFrac: 0.0625,
	}}
	want := "app      gen    MHz  design           util  useful  lat-all  lat-dem  lat-pri   waste\n" +
		"bluray   DDR2   333  GSS+SAGM       0.812  0.750      123       57       89    6.2%\n"
	if got := FormatRows(rows); got != want {
		t.Fatalf("FormatRows rendering changed:\ngot:  %q\nwant: %q", got, want)
	}
}
