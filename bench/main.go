// Command bench is the repository's benchmark: six named workloads,
// end-to-end metrics measured with tracing off, per-layer metrics from
// a traced run, and the comparison that gates a change against its
// parent. BENCHMARK.json at the repository root names the workloads and
// metrics and carries the regression bounds; README.md in this
// directory defines them.
//
//	go run ./bench -workload all                 every metric of every workload
//	go run ./bench -workload sat-gss -trace 0    one untraced run
//	go run ./bench -compare A.jsonl B.jsonl      gate B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated input (Config.Seed of every point)")
		seconds = flag.Float64("seconds", 10, "how long each run times ops")
		trace   = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; both")
		out     = flag.String("out", "", "append one JSON line per run to this file (the input of -compare)")
		traj    = flag.String("append", "", "append one row of this invocation's end-to-end medians to this file")
		outDir  = flag.String("outdir", "bench/out", "directory for scratch stores and trace files")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare PARENT CHANGE")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two -out files, got %d arguments", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}

	correct := true
	var records []*record
	for _, w := range selected {
		for _, traced := range modes {
			rec, err := run(w, options{seed: *seed, seconds: *seconds, trace: traced, div: 1, outDir: *outDir})
			if err != nil {
				fatal(err)
			}
			records = append(records, rec)
			correct = correct && rec.Correct
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := contractLine(rec, defs)
			if err != nil {
				fatal(err)
			}
			printRecord(rec, defs)
			if *out != "" {
				if err := appendJSON(*out, rec); err != nil {
					fatal(err)
				}
			}
			// The last line of a run is its result, in the shape the driver
			// of BENCHMARK.json reads.
			fmt.Println(line)
			// Workloads share the process under -workload all; start each
			// from a collected heap.
			runtime.GC()
		}
	}
	if *traj != "" {
		if err := appendJSON(*traj, trajectoryRow(*seed, records)); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// contractLine is the one JSON object a run ends with: exactly the keys
// correct, attempted, failed and metrics, the metrics being every one
// of defs.
func contractLine(rec *record, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured: %v", rec.Workload, d.Name, rec.Failures)
		}
		ms[d.Name] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": ms,
	})
	return string(data), err
}

func printRecord(rec *record, defs []metricDef) {
	mode := "tracing off"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  ops_attempted %d  ops_failed %d  digest %.12s\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed, rec.Digest)
	for _, f := range rec.Failures {
		fmt.Println("   FAILED:", f)
	}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		if v.N > 1 {
			fmt.Printf("   %-32s %16.6g %-6s n %d, median %.6g min %.6g max %.6g\n", d.Name, v.Value, v.Unit, v.N, v.Median, v.Min, v.Max)
		} else {
			fmt.Printf("   %-32s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func appendJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// machine is what the numbers were measured on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func machineFacts() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// trajectoryRow is one line of bench/trajectory.jsonl: the commit, the
// machine, and every end-to-end median of this invocation.
func trajectoryRow(seed uint64, records []*record) map[string]any {
	commit, dirty := "unknown", false
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(rev))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		dirty = err != nil || len(status) > 0
	}
	medians := map[string]map[string]float64{}
	for _, rec := range records {
		if rec.Trace {
			continue
		}
		row := map[string]float64{"ops_failed": float64(rec.Failed)}
		for _, d := range endToEnd {
			row[d.Name] = rec.Metrics[d.Name].Value
		}
		medians[rec.Workload] = row
	}
	return map[string]any{
		"date": time.Now().UTC().Format("2006-01-02"), "commit": commit, "dirty": dirty,
		"machine": machineFacts(), "seed": seed, "medians": medians,
	}
}
