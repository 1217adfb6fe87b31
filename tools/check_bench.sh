#!/bin/sh
# Perf-regression gate: run `ssi_bench perf --quick`, validate the
# BENCH_ssi.json schema, and fail if any hot-path microbenchmark regressed
# more than MAX_REGRESS (default 2x) against the checked-in baseline.
#
# The 2x factor is deliberately generous: wall clock on shared CI machines
# is noisy, and the baseline in tools/bench_baseline.json was recorded on a
# single-core container. The deterministic cross-check (identical simulated
# results at every -j) is enforced by `perf` itself and is not subject to
# the factor — it fails the run outright.
#
# Inside a dune action (INSIDE_DUNE set) we may not invoke dune again, so
# the rule passes the already-built binary via SSI_BENCH.
set -e
cd "$(dirname "$0")/.."

BIN="${SSI_BENCH:-}"
if [ -z "$BIN" ]; then
  if [ -n "${INSIDE_DUNE:-}" ]; then
    echo "check_bench: INSIDE_DUNE but SSI_BENCH not set" >&2
    exit 1
  fi
  dune build bin/ssi_bench.exe
  BIN=_build/default/bin/ssi_bench.exe
fi

out="${TMPDIR:-/tmp}/BENCH_ssi.$$.json"
trap 'rm -f "$out"' EXIT

"$BIN" perf --quick --out "$out" \
  --baseline tools/bench_baseline.json --max-regress "${MAX_REGRESS:-2.0}"

# Schema validation: the one-object-per-line shape downstream tooling (and
# perf --baseline itself) relies on.
grep -q '"schema": "ssi-bench/1"' "$out" || { echo "check_bench: missing/unknown schema" >&2; exit 1; }
grep -q '"benches": \[' "$out" || { echo "check_bench: missing benches array" >&2; exit 1; }
grep -q '"speedup": \[' "$out" || { echo "check_bench: missing speedup array" >&2; exit 1; }
n=$(grep -c '"name": "' "$out")
if [ "$n" -lt 6 ]; then
  echo "check_bench: expected >= 6 microbenches, found $n" >&2
  exit 1
fi
grep -q '"name": "summarize-path"' "$out" || { echo "check_bench: missing summarize-path microbench" >&2; exit 1; }
j=$(grep -c '"j": ' "$out")
if [ "$j" -lt 3 ]; then
  echo "check_bench: expected >= 3 speedup points, found $j" >&2
  exit 1
fi

# Observability-overhead gate. `perf` times four arms with and without a
# sink attached (see bin/perf_cmd.ml); each arm's wall-clock delta is the
# median of paired per-rep ratios.
# - commit-path and lock-acquire-release attach a sink with every channel
#   off: with no sink installed the engine hot paths must carry no
#   observability cost. The words allocated by each arm's measured loop, a
#   deterministic count, must be equal in both modes (an allocation that
#   depends on a sink being installed fails here, however small).
# - commit-path-sketch attaches a sink with only the attribution sketch on.
# These three deltas must not exceed OBS_OVERHEAD_MAX percent (default 10:
# identical code measured -6.6% to +5.9% here, so a tighter wall bound
# fails on noise).
# - timeline-build also builds the timeline of its traced run, work the
#   other side does not do (+7% to +18% measured here), so its delta has a
#   fixed bound of 30 percent.
grep -q '"obs_overhead": \[' "$out" || { echo "check_bench: missing obs_overhead section" >&2; exit 1; }
obs_max="${OBS_OVERHEAD_MAX:-10.0}"
timeline_max=30.0
arms=$(sed -n 's/.*"name": "\([^"]*\)".*"delta_pct": \(-\{0,1\}[0-9.][0-9.]*\).*/\1:\2/p' "$out")
k=0
for arm in $arms; do
  k=$((k + 1))
  name=${arm%%:*}; d=${arm#*:}
  max=$obs_max
  [ "$name" = timeline-build ] && max=$timeline_max
  if awk -v d="$d" -v max="$max" 'BEGIN { exit !(d > max) }'; then
    echo "check_bench: $name observability overhead ${d}% exceeds ${max}%" >&2
    exit 1
  fi
done
if [ "$k" -lt 4 ]; then
  echo "check_bench: expected >= 4 gated obs_overhead arms (commit path, lock manager, timeline build, sketch-on commit path), found $k" >&2
  exit 1
fi
counted=$(sed -n 's/.*"name": "\([^"]*\)".*"no_sink_words": \([0-9][0-9]*\), "null_sink_words": \([0-9][0-9]*\).*/\1:\2:\3/p' "$out")
w=0
for arm in $counted; do
  w=$((w + 1))
  name=${arm%%:*}; rest=${arm#*:}
  w0=${rest%%:*}; w1=${rest#*:}
  if [ "$w0" != "$w1" ]; then
    echo "check_bench: $name allocates $w1 words with a channels-off sink but $w0 with none" >&2
    exit 1
  fi
done
if [ "$w" -lt 2 ]; then
  echo "check_bench: expected >= 2 obs_overhead arms with word counts (commit path, lock manager), found $w" >&2
  exit 1
fi

# Timeline gate: the windowed-telemetry probe must be present, must have
# bucketed a non-trivial run into windows, and the wasted-work ledger must
# balance (committed + wasted + in-flight covers every begin->outcome span).
# `perf` itself exits 2 on a ledger violation; the greps also protect
# against the probe being silently dropped from the report.
grep -q '"timeline": {' "$out" || { echo "check_bench: missing timeline section" >&2; exit 1; }
grep -q '"timeline": {[^}]*"conserved": true' "$out" || { echo "check_bench: timeline probe reports a wasted-work ledger violation" >&2; exit 1; }
tlwin=$(sed -n 's/.*"timeline": {[^}]*"windows": \([0-9][0-9]*\).*/\1/p' "$out")
if [ -z "$tlwin" ] || [ "$tlwin" -eq 0 ]; then
  echo "check_bench: timeline probe produced no windows" >&2
  exit 1
fi

# Bounded-memory gate: the deterministic 10k-commit bounded run recorded in
# the report must have kept retained committed-transaction records plus live
# SIREAD lock-table entries within its memory budget at every commit —
# i.e. granularity promotion + summarization actually reclaim memory.
# `perf` itself exits 2 if the budget is breached; the greps here also
# protect against the probe being silently dropped from the report.
grep -q '"memory": {' "$out" || { echo "check_bench: missing memory section" >&2; exit 1; }
grep -q '"within_budget": true' "$out" || { echo "check_bench: bounded run exceeded its memory budget" >&2; exit 1; }
summarized=$(sed -n 's/.*"summarized": \([0-9][0-9]*\).*/\1/p' "$out")
if [ -z "$summarized" ] || [ "$summarized" -eq 0 ]; then
  echo "check_bench: bounded run never summarized a committed transaction" >&2
  exit 1
fi

# Recovery gate: the WAL-replay probe must be present and must actually have
# recovered transactions — a recovery path that silently drops committed
# work would report committed=0 here long before any fuzz campaign notices.
grep -q '"recovery": {' "$out" || { echo "check_bench: missing recovery section" >&2; exit 1; }
recovered=$(sed -n 's/.*"recovery": {[^}]*"committed": \([0-9][0-9]*\).*/\1/p' "$out")
if [ -z "$recovered" ] || [ "$recovered" -eq 0 ]; then
  echo "check_bench: recovery probe recovered no committed transactions" >&2
  exit 1
fi
replayed=$(sed -n 's/.*"recovery": {"records": \([0-9][0-9]*\).*/\1/p' "$out")
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
  echo "check_bench: recovery probe replayed no records" >&2
  exit 1
fi

# Exploration gate: the DPOR probe must be present, must beat brute-force
# enumeration by at least 4x (the acceptance threshold; in practice the
# reduction is an order of magnitude larger), and must report a positive
# schedules/sec rate. executed/bound/outcomes are deterministic, so a
# reduction regression here means the race analysis got weaker, not that
# the machine was slow.
grep -q '"exploration": {' "$out" || { echo "check_bench: missing exploration section" >&2; exit 1; }
reduction=$(sed -n 's/.*"reduction": \([0-9.][0-9.]*\).*/\1/p' "$out")
[ -n "$reduction" ] || { echo "check_bench: exploration section has no reduction factor" >&2; exit 1; }
if awk -v r="$reduction" 'BEGIN { exit !(r < 4.0) }'; then
  echo "check_bench: DPOR reduction factor ${reduction}x below the 4x threshold" >&2
  exit 1
fi
schedrate=$(sed -n 's/.*"schedules_per_s": \([0-9.][0-9.]*\).*/\1/p' "$out")
[ -n "$schedrate" ] || { echo "check_bench: exploration section has no schedules_per_s" >&2; exit 1; }
if awk -v r="$schedrate" 'BEGIN { exit !(r <= 0.0) }'; then
  echo "check_bench: exploration rate ${schedrate} schedules/s is not positive" >&2
  exit 1
fi

# Attribution gate: the contention-sketch probe must be present, must have
# recorded updates from the contended run (an engine hook that silently
# stopped feeding the sketch shows up as updates=0 here), and the measured
# sketch-update cost must be a positive number. updates/tracked/
# error_bound/blame are deterministic simulated results.
grep -q '"attribution": {' "$out" || { echo "check_bench: missing attribution section" >&2; exit 1; }
atupd=$(sed -n 's/.*"attribution": {"updates": \([0-9][0-9]*\).*/\1/p' "$out")
if [ -z "$atupd" ] || [ "$atupd" -eq 0 ]; then
  echo "check_bench: attribution sketch recorded no updates" >&2
  exit 1
fi
atns=$(sed -n 's/.*"sketch_update_ns": \([0-9.][0-9.]*\).*/\1/p' "$out")
[ -n "$atns" ] || { echo "check_bench: attribution section has no sketch_update_ns" >&2; exit 1; }
if awk -v r="$atns" 'BEGIN { exit !(r <= 0.0) }'; then
  echo "check_bench: sketch update cost ${atns} ns is not positive" >&2
  exit 1
fi

echo "check_bench: OK ($n benches within ${MAX_REGRESS:-2.0}x of baseline, $j speedup points, obs overhead within bounds on $k arms (${obs_max}%, timeline build ${timeline_max}%) and 0 extra words on $w hot paths, bounded run within budget with $summarized txns summarized, recovery replayed $replayed records / $recovered commits, DPOR reduction ${reduction}x at ${schedrate} schedules/s, timeline ledger conserved over $tlwin windows, attribution sketch $atupd updates at ${atns} ns/update)"
