package main

// The command line pinned in-process. Every leg below runs through run()
// — the whole of main short of exiting — and compares its exit status,
// its stdout bytes and its -json bytes. The golden files under testdata/
// were captured from the ten pre-merge aanoc-<sub> binaries, so they pin
// the port ("aanoc-tables -table all" is "aanoc tables -table all",
// byte for byte) and every later change to what a subcommand prints.
//
// A deliberate output change re-pins with:
//
//	go test ./cmd/aanoc -update

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aanoc/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite cmd/aanoc/testdata from the current binary")

const digestFile = "testdata/json.sha256"

// A leg is one command line. In args, $SPECS is the repository's
// testdata/specs and $TMP a directory the legs of one test share (so a
// later leg can read what an earlier one wrote).
type leg struct {
	name string
	args string
	// code is the expected exit status.
	code int
	// golden names testdata/<golden>.stdout, the expected stdout bytes;
	// legs that must print the same bytes share one. Empty: unchecked.
	golden string
	// json selects the sidecar check: "file" appends -json $TMP/<name>.json
	// and "-" appends -json - (the report owns stdout); the bytes must
	// hash to the <golden>.json line of testdata/json.sha256.
	json string
	// stdout and stderr, when set, must appear on that stream; a quiet
	// leg must leave stdout empty.
	stdout, stderr string
	quiet          bool
}

// corpus pins stdout and -json of every subcommand on a short run.
var corpus = []leg{
	{name: "sim-all", args: "sim -all -gen 2 -priority -cycles 20000 -sample-every 1000", golden: "sim-all", json: "file"},
	// The tick-every-cycle reference loop must not change a byte.
	{name: "sim-all-no-idle-skip", args: "sim -all -gen 2 -priority -cycles 20000 -sample-every 1000 -no-idle-skip", golden: "sim-all", json: "file"},
	{name: "sim-ddtv4", args: "sim -app ddtv4 -channels 4 -chan-scheme chan-bank-xor -gen 4 -subarrays 4 -checked -percore -cycles 20000", golden: "sim-ddtv4", json: "file"},
	// -spec is a drop-in for -app: a committed spec file prints what the
	// builtin model it mirrors prints.
	{name: "sim-spec", args: "sim -spec $SPECS/bluray.json -all -cycles 20000 -priority", golden: "sim-spec", json: "file"},
	{name: "sim-app", args: "sim -app bluray -all -cycles 20000 -priority", golden: "sim-spec", json: "file"},
	{name: "sim-dpq", args: "sim -app bluray -gen 2 -design GSS+SAGM -priority -cycles 20000 -scheduler dpq", golden: "sim-dpq", json: "file"},
	{name: "sim-regulated", args: "sim -app bluray -gen 2 -design GSS+SAGM -priority -cycles 20000 -scheduler regulated", golden: "sim-regulated", json: "file"},
	{name: "sim-staged", args: "sim -app bluray -gen 2 -design GSS+SAGM -priority -cycles 20000 -scheduler staged", golden: "sim-staged", json: "file"},
	{name: "sim-json-stdout", args: "sim -cycles 20000", golden: "sim-json-stdout", json: "-"},
	{name: "tables-all-serial", args: "tables -table all -cycles 20000 -parallel 1", golden: "tables-all", json: "file"},
	{name: "tables-all", args: "tables -table all -cycles 20000", golden: "tables-all", json: "file"},
	// The facade's TableOptions.Store path: a table regenerated against a
	// populated store prints, and reports, what a fresh one does.
	{name: "tables-store-cold", args: "tables -table all -cycles 20000 -store $TMP/tstore", golden: "tables-all", json: "file"},
	{name: "tables-store-warm", args: "tables -table all -cycles 20000 -store $TMP/tstore", golden: "tables-all", json: "file"},
	{name: "tables-sched-serial", args: "tables -table sched -cycles 20000 -parallel 1", golden: "tables-sched", json: "file"},
	{name: "tables-sched", args: "tables -table sched -cycles 20000", golden: "tables-sched", json: "file"},
	{name: "sweep-pct", args: "sweep -sweep pct -cycles 20000", golden: "sweep-pct", json: "file"},
	{name: "sweep-granularity", args: "sweep -sweep granularity -cycles 20000", golden: "sweep-granularity", json: "file"},
	{name: "sweep-pagepolicy", args: "sweep -sweep pagepolicy -cycles 20000", golden: "sweep-pagepolicy", json: "file"},
	{name: "sweep-gss-routers", args: "sweep -sweep gss-routers -cycles 20000", golden: "sweep-gss-routers", json: "file"},
	{name: "sweep-channels", args: "sweep -sweep channels -app bluray2 -cycles 20000", golden: "sweep-channels", json: "file"},
	{name: "sweep-scheduler", args: "sweep -sweep scheduler -cycles 20000", golden: "sweep-scheduler", json: "file"},
	// The load-latency curves of EXPERIMENTS.md's "Load–latency" section.
	{name: "sweep-load", args: "sweep -sweep load -app bluray -gen 2 -priority=false -cycles 20000", golden: "sweep-load", json: "file",
		stderr: "aanoc sweep: CONV knee: f=0.60 (completed 1447, down from 1454 at f=0.55)\naanoc sweep: [4] knee: f=0.75 (completed 1562, down from 1646 at f=0.70)\naanoc sweep: GSS+SAGM knee: f=0.65 (completed 1675, down from 1678 at f=0.60)\n"},
	// The same sweep twice against one store: the second run simulates
	// nothing and prints the same CSV.
	{name: "sweep-store-cold", args: "sweep -sweep scheduler -cycles 20000 -store $TMP/store", golden: "sweep-scheduler", stderr: "store: 0 hits, 4 simulated"},
	{name: "sweep-store-warm", args: "sweep -sweep scheduler -cycles 20000 -store $TMP/store", golden: "sweep-scheduler", stderr: "store: 4 hits, 0 simulated"},
	{name: "fig8", args: "fig8 -cycles 20000", golden: "fig8"},
	{name: "fig8-spec", args: "fig8 -spec $SPECS/ddtv4.json", golden: "fig8-spec"},
	{name: "report", args: "report -cycles 20000", golden: "report", json: "file"},
	{name: "trace-record", args: "trace -record $TMP/t.jsonl -app bluray -gen 2 -design [4] -cycles 20000", golden: "trace-record"},
	{name: "trace-replay", args: "trace -replay $TMP/t.jsonl -app bluray -gen 2 -all -cycles 20000", golden: "trace-replay"},
	{name: "gen-spec", args: "gen -seed 42", golden: "gen-spec"},
	{name: "gen-run", args: "gen -n 3 -seed 7 -run -cycles 20000 -checked", golden: "gen-run"},
	{name: "area", args: "area", golden: "area"},
	{name: "timing", args: "timing", golden: "timing"},
}

// exits pins the exit-status contract: 0 ok, 1 error, 2 usage error,
// invariant violation or calibration miss.
var exits = []leg{
	{name: "no-subcommand", args: "", code: 2, stderr: "usage: aanoc <subcommand>"},
	{name: "unknown-subcommand", args: "frobnicate", code: 2, stderr: "tables"},
	{name: "unknown-flag", args: "sim -frobnicate", code: 2, stderr: "flag provided but not defined"},
	// A stray word ends flag parsing: the flags after it (here the design
	// and checked mode) used to be dropped and GSS ran unchecked, exit 0.
	{name: "positional-argument", args: "sim -cycles 1000 oops -design CONV -checked", code: 2, stderr: `unexpected argument "oops"`, quiet: true},
	{name: "help", args: "help sim"},
	{name: "spec-with-app", args: "sim -spec $SPECS/bluray.json -app bluray", code: 1, stderr: "mutually exclusive"},
	// A spec whose run block asks for an unsupported channel count is
	// rejected at load through the shared path.
	{name: "spec-bad-channels", args: "sim -spec $TMP/chan5.json", code: 1, stderr: "invalid channel count"},
	// The spec's run block beats a flag's default; an explicit flag
	// beats the spec. Both show in the table's gen column.
	{name: "spec-beats-default", args: "sim -spec $TMP/gen3.json -cycles 2000", stdout: "DDR3"},
	{name: "flag-beats-spec", args: "sim -spec $TMP/gen3.json -gen 1 -cycles 2000", stdout: "DDR1"},
	// Checked mode turns an injected device fault into exit status 2:
	// the DPQ WCET monitor catches a legality-preserving slow CAS, the
	// conformance monitor's own window a dropped tFAW check.
	{name: "dpq-checked-clean", args: "sim -scheduler dpq -checked -cycles 25000"},
	{name: "dpq-checked-slow-cas", args: "sim -scheduler dpq -checked -cycles 25000 -inject-fault slow-cas", code: 2, stderr: "wcet-bound"},
	{name: "ddr4-checked-clean", args: "sim -gen 4 -design GSS+SAGM -priority -checked -cycles 25000"},
	{name: "ddr4-checked-skip-tfaw", args: "sim -gen 4 -design GSS+SAGM -priority -checked -cycles 25000 -inject-fault skip-tfaw", code: 2, stderr: "tFAW"},
	// A fault that breaks the checker's recording limit: the header
	// states every violation counted, not only the 100 recorded.
	{name: "checked-skip-trcd-total", args: "sim -inject-fault skip-trcd -gen 2 -design GSS+SAGM -priority -cycles 100000 -checked", code: 2, stderr: "aanoc: 3722 invariant violation(s) on GSS+SAGM"},
	{name: "unknown-fault", args: "sim -inject-fault gremlin", code: 1, stderr: "-inject-fault"},
	// One validation surface: what sim rejects, every subcommand rejects,
	// before anything simulates.
	{name: "sim-negative-cycles", args: "sim -cycles -5", code: 1, stderr: "negative cycle count"},
	{name: "tables-negative-cycles", args: "tables -table 3 -cycles -5", code: 1, stderr: "negative cycle count"},
	{name: "fig8-negative-cycles", args: "fig8 -cycles -5", code: 1, stderr: "negative cycle count"},
	{name: "report-negative-cycles", args: "report -cycles -5", code: 1, stderr: "negative cycle count"},
	{name: "area-negative-cycles", args: "area -table 5 -cycles -5", code: 1, stderr: "negative cycle count"},
	// A clock that is no speed grade of the generation is rejected when
	// the flags resolve, before the table header.
	{name: "sim-bad-clock", args: "sim -clock 123", code: 1, stderr: "no predefined timing", quiet: true},
	{name: "sim-bad-clock-for-gen", args: "sim -gen 4 -clock 266", code: 1, stderr: "no predefined timing", quiet: true},
	// So are the two GSS knobs outside their ranges: they used to run as
	// pct 5, pct 3 and "no GSS routers" under a cache key of their own.
	{name: "sim-pct-high", args: "sim -pct 9", code: 1, stderr: "PCT must be 1..6", quiet: true},
	{name: "sim-pct-negative", args: "sim -pct -2", code: 1, stderr: "PCT must be 1..6", quiet: true},
	{name: "sim-gss-routers-negative", args: "sim -gss-routers -7", code: 1, stderr: "GSS router count -7", quiet: true},
	// A header names the cycle count the rows ran, not the raw flag.
	{name: "tables-default-cycles", args: "tables -table 3 -cycles 0", stdout: "(200000 cycles/run)"},
	{name: "fig8-spec-bad-gen", args: "fig8 -spec $SPECS/ddtv4.json -gen 9", code: 1, stderr: "invalid DDR generation"},
	{name: "fig8-gen-without-spec", args: "fig8 -gen 3", code: 1, stderr: "-spec"},
	// Selectors name their menu instead of printing nothing.
	{name: "area-unknown-table", args: "area -table 7", code: 1, stderr: "4, 5, all"},
	{name: "timing-unknown-scenario", args: "timing -scenario zzz", code: 1, stderr: "pre, ap, both"},
	// A diagram needs a cycle and a write: below 1 both used to print
	// empty panels, exit 0.
	{name: "timing-negative-width", args: "timing -width -5", code: 2, stderr: "-width and -n must be at least 1", quiet: true},
	{name: "timing-zero-n", args: "timing -n 0", code: 2, stderr: "-width and -n must be at least 1", quiet: true},
	{name: "tables-unknown-table", args: "tables -table 9", code: 1, stderr: "1, 2, 3, sched, all"},
	{name: "sweep-unknown-sweep", args: "sweep -sweep bogus", code: 1, stderr: "pct, granularity"},
	{name: "trace-neither-mode", args: "trace", code: 1, stderr: "exactly one of -record or -replay"},
	// A trace record of a class nobody defined is an error naming its
	// line; it used to replay, exit 0, as media traffic.
	{name: "trace-unknown-class", args: "trace -replay $TMP/bulk.jsonl -cycles 2000", code: 1, stderr: `line 2: trace: noc: invalid syntax: unknown class "bulk"`, quiet: true},
	// store gc removes the namespace an earlier format left, once.
	{name: "store-gc", args: "store gc -store $TMP/gc", stdout: "/gc/v2-s2-0123456789ab\n"},
	{name: "store-gc-again", args: "store gc -store $TMP/gc", quiet: true},
	{name: "store-gc-without-store", args: "store gc", code: 1, stderr: "-store DIR", quiet: true},
	{name: "store-unknown-action", args: "store prune -store $TMP/gc", code: 2, stderr: `unknown action "prune"`, quiet: true},
}

func TestCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every subcommand, the full Table I-III grid five times over")
	}
	runLegs(t, corpus)
}

func TestExitCodes(t *testing.T) {
	runLegs(t, exits)
}

// specFixtures writes the files the flag-rule legs load — a spec whose
// run block asks for five channels, one whose run block selects DDR3, a
// trace whose second record has a class nobody defined, a store holding
// a namespace of an earlier format — into a fresh
// directory, bypassing Validate: the command under test is the one that
// must reject.
func specFixtures(t *testing.T) string {
	t.Helper()
	tmp := t.TempDir()
	bulk := `{"cycle":0,"core":"cpu","kind":"R","class":"demand","bank":0,"row":0,"col":0,"beats":8}
{"cycle":4,"core":"cpu","kind":"R","class":"bulk","bank":0,"row":0,"col":0,"beats":8}
`
	if err := os.WriteFile(filepath.Join(tmp, "bulk.jsonl"), []byte(bulk), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(tmp, "gc", "v2-s2-0123456789ab", "aa")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, strings.Repeat("a", 64)+".bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, fix := range map[string]struct {
		base string
		run  scenario.Run
	}{
		"chan5.json": {"ddtv4", scenario.Run{Channels: 5}},
		"gen3.json":  {"bluray", scenario.Run{Generation: 3}},
	} {
		sp, err := scenario.Load(filepath.Join("..", "..", "testdata", "specs", fix.base+".json"))
		if err != nil {
			t.Fatal(err)
		}
		run := fix.run
		sp.Run = &run
		var buf bytes.Buffer
		if err := sp.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tmp
}

func runLegs(t *testing.T, legs []leg) {
	tmp := specFixtures(t)
	specs, err := filepath.Abs(filepath.Join("..", "..", "testdata", "specs"))
	if err != nil {
		t.Fatal(err)
	}
	digests := readDigests(t)
	for _, l := range legs {
		l := l
		// Sequential subtests: a later leg may read an earlier one's files.
		t.Run(l.name, func(t *testing.T) {
			args := strings.Fields(strings.NewReplacer("$SPECS", specs, "$TMP", tmp).Replace(l.args))
			jsonPath := filepath.Join(tmp, l.name+".json")
			switch l.json {
			case "file":
				args = append(args, "-json", jsonPath)
			case "-":
				args = append(args, "-json", "-")
			}
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), args, &stdout, &stderr)
			if code != l.code {
				t.Fatalf("exit status %d, want %d\nstderr:\n%s", code, l.code, stderr.String())
			}
			if l.stderr != "" && !strings.Contains(stderr.String(), l.stderr) {
				t.Errorf("stderr does not mention %q:\n%s", l.stderr, stderr.String())
			}
			if l.quiet && stdout.Len() > 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if l.stdout != "" && !strings.Contains(stdout.String(), l.stdout) {
				t.Errorf("stdout does not mention %q:\n%s", l.stdout, stdout.String())
			}
			out := bytes.ReplaceAll(stdout.Bytes(), []byte(tmp), []byte("$TMP"))
			sidecar := out
			if l.json == "file" {
				if sidecar, err = os.ReadFile(jsonPath); err != nil {
					t.Fatal(err)
				}
			}
			if l.json != "" {
				sum := sha256.Sum256(sidecar)
				got, key := hex.EncodeToString(sum[:]), l.golden+".json"
				if *update {
					digests[key] = got
				} else if digests[key] != got {
					t.Errorf("-json bytes hash to %s, %s pins %s=%s", got, digestFile, key, digests[key])
				}
			}
			if l.golden == "" || l.json == "-" {
				return
			}
			path := filepath.Join("testdata", l.golden+".stdout")
			if *update {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("stdout diverged from %s\n--- got\n%s--- want\n%s", path, out, want)
			}
		})
	}
	if *update {
		writeDigests(t, digests)
	}
}

// readDigests parses testdata/json.sha256 ("<hex>  <name>", the
// sha256sum format).
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			digests[fields[1]] = fields[0]
		}
	}
	return digests
}

func writeDigests(t *testing.T, digests map[string]string) {
	t.Helper()
	var lines []string
	for name, sum := range digests {
		lines = append(lines, sum+"  "+name+"\n")
	}
	sort.Slice(lines, func(i, j int) bool { return strings.Fields(lines[i])[1] < strings.Fields(lines[j])[1] })
	if err := os.WriteFile(digestFile, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}
