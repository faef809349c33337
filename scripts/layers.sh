#!/usr/bin/env bash
# layers.sh — where a run's time and allocations go, per workload.
#
# Usage: scripts/layers.sh [outdir] [workload ...]
#
# Drives BenchmarkLayers (layers_test.go): bench's sat-gss, sat-conv,
# lowutil-skip and scale-ddr4 configurations at seed 1, and tables-cold,
# the facade's Tables I-III at 100,000 cycles a point on two workers
# into an empty store. For each workload it prints
#
#   - each layer's share of CPU: the flat samples of a CPU profile of
#     three ops, grouped by the package of the sampled function (the Go
#     runtime and collector as one layer, everything unlisted as "other");
#   - allocations per op by phase: inside system.New, Runner.RunTo and
#     Runner.Finish, and the rest (sweep, store, encoding), from a run
#     that records every allocation's stack (-test.memprofilerate=1);
#     the tiny allocations the heap profile does not see (those sharing
#     a 16-byte block) are a row of their own, so the rows sum to the
#     op's runtime.MemStats count.
#
# Both columns sum to their total by construction. Profiles and the test
# binary go to outdir (default: a temporary directory, removed on exit).
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-}
if [ -z "$out" ]; then
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(sat-gss sat-conv lowutil-skip scale-ddr4 tables-cold)
fi
mkdir -p "$out"
go test -c -o "$out/aanoc.test" .

# layer maps a function name from pprof to its layer.
layer_awk='
function layer(fn,    pkg) {
  pkg = fn
  sub(/^(type:\.[a-z]+\.)?/, "", pkg)
  match(pkg, /^([A-Za-z0-9_-]+\/)*[A-Za-z0-9_-]+/)
  pkg = substr(pkg, RSTART, RLENGTH)
  if (pkg == "runtime" || pkg ~ /^(internal\/)?runtime\//) return "runtime/GC"
  if (pkg == "aanoc/internal/sim") return "sim"
  if (pkg == "aanoc/internal/noc") return "noc"
  if (pkg == "aanoc/internal/router" || pkg == "aanoc/internal/core") return "router+core"
  if (pkg == "aanoc/internal/memctrl") return "memctrl"
  if (pkg == "aanoc/internal/dram") return "dram"
  if (pkg == "aanoc/internal/traffic") return "traffic"
  if (pkg == "aanoc/internal/system") return "system"
  if (pkg == "aanoc/internal/obs") return "obs"
  if (pkg == "aanoc/internal/sweep" || pkg == "aanoc/internal/store") return "sweep+store"
  return "other"
}
'

for w in "${workloads[@]}"; do
  echo "== $w"
  "$out/aanoc.test" -test.run '^$' -test.bench "^BenchmarkLayers\$/^$w\$" -test.benchtime 2x \
    -test.cpuprofile "$out/$w.cpu" > "$out/$w.cpu.txt"
  go tool pprof -top -nodecount=1000000 -nodefraction=0 -unit=ms "$out/aanoc.test" "$out/$w.cpu" 2>/dev/null |
    awk "$layer_awk"'
      started && NF >= 6 {
        v = $1; sub(/ms$/, "", v)
        fn = $6; for (i = 7; i <= NF; i++) fn = fn " " $i
        ms[layer(fn)] += v; total += v
      }
      /flat%/ { started = 1 }
      END {
        n = split("sim noc router+core memctrl dram traffic system obs sweep+store runtime/GC other", order, " ")
        printf "  %-12s %7s\n", "layer", "cpu %"
        for (i = 1; i <= n; i++) printf "  %-12s %7.1f\n", order[i], 100 * ms[order[i]] / total
        printf "  %-12s %7.1f   (%d ms sampled)\n", "total", 100, total
      }'
  "$out/aanoc.test" -test.run '^$' -test.bench "^BenchmarkLayers\$/^$w\$" -test.benchtime 1x \
    -test.memprofilerate 1 | tee "$out/$w.mem.txt" |
    awk '/^BenchmarkLayers/ {
        for (i = 3; i < NF; i++) a[$(i + 1)] = $i
        printf "  %-20s %9s\n", "phase", "allocs/op"
        printf "  %-20s %9d\n", "New", a["new-allocs/op"]
        printf "  %-20s %9d\n", "RunTo", a["runto-allocs/op"]
        printf "  %-20s %9d\n", "Finish", a["finish-allocs/op"]
        printf "  %-20s %9d\n", "sweep/store/encode", a["rest-allocs/op"]
        printf "  %-20s %9d\n", "tiny, unprofiled", a["tiny-allocs/op"]
        printf "  %-20s %9d\n", "total", a["allocs/op"]
      }'
done
