#!/usr/bin/env bash
# layers.sh — where a run's time and allocations go, per workload.
#
# Usage: scripts/layers.sh [outdir] [workload ...]
#
# Drives BenchmarkLayers (layers_test.go): bench's sat-gss, sat-conv,
# lowutil-skip and scale-ddr4 configurations at seed 1; tables-cold,
# the facade's Tables I-III at 100,000 cycles a point on two workers
# into an empty store; and serve-warm, the facade's warm Sweep of the
# 72-point Table I+II grid at 50,000 cycles on one worker over a store
# filled in set-up. For each workload it prints
#
#   - each layer's share of CPU: the flat samples of a CPU profile of
#     three ops (401 of serve-warm's short ones), set-up left out by the
#     ops' profiler label, grouped by the package of the sampled function
#     (internal/codec's plan with the reflect package it walks as one
#     layer, the Go runtime and collector as another, everything unlisted,
#     syscalls included, as "other");
#   - allocations per op by phase, from a run that records every
#     allocation's stack (-test.memprofilerate=1): for a simulating
#     workload inside system.New, Runner.RunTo and Runner.Finish; for
#     serve-warm inside Config.resolve, sweep.Fingerprint and Store.Get;
#     and the rest;
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
  workloads=(sat-gss sat-conv lowutil-skip scale-ddr4 tables-cold serve-warm)
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
  if (pkg ~ /^(internal\/runtime\/)?syscall$/) return "other"
  if (pkg == "runtime" || pkg ~ /^(internal\/)?runtime\//) return "runtime/GC"
  if (pkg == "aanoc/internal/sim") return "sim"
  if (pkg == "aanoc/internal/noc") return "noc"
  if (pkg == "aanoc/internal/router" || pkg == "aanoc/internal/core") return "router+core"
  if (pkg == "aanoc/internal/memctrl") return "memctrl"
  if (pkg == "aanoc/internal/dram") return "dram"
  if (pkg == "aanoc/internal/traffic") return "traffic"
  if (pkg == "aanoc/internal/system") return "system"
  if (pkg == "aanoc/internal/obs") return "obs"
  if (pkg == "aanoc/internal/codec" || pkg == "reflect") return "codec"
  if (pkg == "aanoc/internal/sweep" || pkg == "aanoc/internal/store") return "sweep+store"
  return "other"
}
'

for w in "${workloads[@]}"; do
  echo "== $w"
  ops=2x
  if [ "$w" = serve-warm ]; then ops=400x; fi
  "$out/aanoc.test" -test.run '^$' -test.bench "^BenchmarkLayers\$/^$w\$" -test.benchtime "$ops" \
    -test.cpuprofile "$out/$w.cpu" > "$out/$w.cpu.txt"
  go tool pprof -top -nodecount=1000000 -nodefraction=0 -unit=ms -tagfocus=op=timed \
    "$out/aanoc.test" "$out/$w.cpu" 2>/dev/null |
    awk "$layer_awk"'
      started && NF >= 6 {
        v = $1; sub(/ms$/, "", v)
        fn = $6; for (i = 7; i <= NF; i++) fn = fn " " $i
        ms[layer(fn)] += v; total += v
      }
      /flat%/ { started = 1 }
      END {
        n = split("sim noc router+core memctrl dram traffic system obs codec sweep+store runtime/GC other", order, " ")
        printf "  %-12s %7s\n", "layer", "cpu %"
        for (i = 1; i <= n; i++) printf "  %-12s %7.1f\n", order[i], 100 * ms[order[i]] / total
        printf "  %-12s %7.1f   (%d ms sampled)\n", "total", 100, total
      }'
  "$out/aanoc.test" -test.run '^$' -test.bench "^BenchmarkLayers\$/^$w\$" -test.benchtime 1x \
    -test.memprofilerate 1 | tee "$out/$w.mem.txt" |
    awk '/^BenchmarkLayers/ {
        for (i = 3; i < NF; i++) a[$(i + 1)] = $i
        printf "  %-20s %9s\n", "phase", "allocs/op"
        n = split("New RunTo Finish resolve Fingerprint store.Get rest", order, " ")
        for (i = 1; i <= n; i++)
          if ((order[i] "-allocs/op") in a) printf "  %-20s %9d\n", order[i], a[order[i] "-allocs/op"]
        printf "  %-20s %9d\n", "tiny, unprofiled", a["tiny-allocs/op"]
        printf "  %-20s %9d\n", "total", a["allocs/op"]
      }'
done
