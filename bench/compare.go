package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// paperBoundPt is how far, in percentage points, an accuracy metric may
// rise: a simulator-only change must leave it bit-identical, and a
// fidelity change is how it moves.
const paperBoundPt = 0.05

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles gates the runs in changePath against those in
// parentPath with the bounds of BENCHMARK.json, printing one row per
// workload and end-to-end metric. It reports whether the change passes:
// no REGRESSED row and no higher share of failed ops.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	return compareRecords(w, sp, parent, change), nil
}

// side is one file's runs of one workload.
type side struct {
	values            map[string][]float64 // metric -> one median per run
	attempted, failed int
}

func collect(recs []record, workload string) side {
	s := side{values: map[string][]float64{}}
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	return s
}

// spread is the distance between the quartiles of a set of runs as a
// share of their median; a single run has no spread to show.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func compareRecords(w io.Writer, sp spec, parent, change []record) bool {
	pass := true
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %18s %7s  %s\n", "workload", "metric", "parent", "change", "change/parent", "bound", "verdict")
	for _, wl := range sp.Workloads {
		p, c := collect(parent, wl.Name), collect(change, wl.Name)
		if p.attempted == 0 || c.attempted == 0 {
			fmt.Fprintf(w, "%-13s missing from one side\n", wl.Name)
			pass = false
			continue
		}
		for _, d := range sp.EndToEnd {
			pv, cv := p.values[d.Name], c.values[d.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pm, cm := median(pv), median(cv)
			// worse is the share of the parent's median the change lost.
			worse := (cm - pm) / pm
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case max(spread(pv), spread(cv)) > d.Bound && !allBetter(pv, cv, d.Better):
				// The runs of one side disagree by more than the bound: the
				// medians cannot tell a regression from noise.
				verdict = "UNRESOLVED"
			case worse > d.Bound:
				verdict = "REGRESSED"
				pass = false
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %8.4f of %-8.6g %6.0f%%  %s\n",
				wl.Name, d.Name, pm, cm, cm/pm, pm, 100*d.Bound, verdict)
		}
		for _, name := range []string{"paper_util_ratio_err_pct", "paper_lat_ratio_err_pct"} {
			pv, cv := p.values[name], c.values[name]
			if len(pv) == 0 || len(cv) == 0 || (median(pv) == 0 && median(cv) == 0) {
				continue
			}
			verdict := "PASS"
			if median(cv)-median(pv) > paperBoundPt {
				verdict = "REGRESSED"
				pass = false
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %+8.4f pt %15s  %s\n",
				wl.Name, name[:len("paper_util_ratio")], median(pv), median(cv), median(cv)-median(pv), "0.05pt", verdict)
		}
		pf, cf := float64(p.failed)/float64(p.attempted), float64(c.failed)/float64(c.attempted)
		if cf > pf {
			fmt.Fprintf(w, "%-13s ops_failed %d of %d, parent %d of %d  REGRESSED\n", wl.Name, c.failed, c.attempted, p.failed, p.attempted)
			pass = false
		}
	}
	return pass
}

// allBetter reports whether every run of the change reads better than
// every run of the parent.
func allBetter(parent, change []float64, better string) bool {
	ps, cs := sorted(parent), sorted(change)
	if better == "higher" {
		return cs[0] > ps[len(ps)-1]
	}
	return cs[len(cs)-1] < ps[0]
}
