#!/bin/sh
# Tier-1 verification plus an engine smoke test.
#
#   ./check.sh          build, run the test suites, smoke the engine CLI
#
# The determinism suite covers a fast experiment subset by default; set
# TRIPS_DETERMINISM_FULL=1 to sweep the whole battery (~35 min on one
# core).
set -eu

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== static analyzer: trips_run lint --all --strict, every preset =="
dune exec bin/trips_run.exe -- lint --all --strict \
  --preset O0 --preset C --preset H --preset BB --out lint-report.json

echo "== translation validation: trips_run transval --all (full matrix) =="
# All four EDGE pipelines (O0/C/H/BB) plus the RISC backend over every
# workload; hash-consed terms keep the whole sweep around ten seconds.
dune exec bin/trips_run.exe -- transval --all --strict \
  --preset O0 --preset C --preset H --preset BB --isa both \
  --out transval-report.json >/dev/null

echo "== global abstract interpretation: trips_run absint --all --strict =="
# Fact/hit payoff ledger for the global optimizer.  Soundness is covered
# by the transval stage above (the full matrix re-derives and replays
# every applied global fact and LSID relaxation); here we gate that the
# passes keep actually firing.
dune exec bin/trips_run.exe -- absint --all --preset C --preset H --preset BB \
  --strict --out absint-report.json >/dev/null

echo "== absint fact golden: every workload x O0/C/H/BB =="
# dune runtest checks a subset; the full sweep pins every fact the
# analysis exposes to test/absint_golden.ml.
TRIPS_ABSINT_GOLDEN_FULL=1 dune exec test/test_absint.exe -- test '^golden$' >/dev/null

echo "== absint fuzz fact golden: 500 fuzz seeds x O0/C/H/BB =="
# The same facts plus every gathered global rewrite, pinned per fuzz
# program to test/absint_fuzz_golden.ml (dune runtest checks 50 seeds).
TRIPS_ABSINT_GOLDEN_FULL=1 dune exec test/test_absint.exe -- test fuzz-golden >/dev/null

echo "== sampled golden: every workload at preset C =="
# dune runtest checks a subset; the full sweep pins every Sampled.run
# estimate to test/sampled_golden.ml.
TRIPS_SAMPLED_GOLDEN_FULL=1 dune exec test/test_sim_parity.exe -- test sampled_golden >/dev/null

echo "== exec golden: every workload at preset C, instance streams at C and H =="
# dune runtest checks a subset; the full sweep pins the functional
# emulator's result and all of its statistics to test/exec_golden.ml,
# and every committed instance (block, exit, fired, useful, memory
# events) per workload at C and H and per fuzz seed 1-200 to
# test/exec_stream_golden.ml.
TRIPS_EXEC_GOLDEN_FULL=1 dune exec test/test_exec.exe >/dev/null

echo "== compile golden: every workload x O0/C/H/BB, plus the RISC baseline =="
# dune runtest checks a subset; the full sweep pins every compiled
# program's code, register numbers and placement to test/compile_golden.ml.
TRIPS_COMPILE_GOLDEN_FULL=1 dune exec test/test_compiler.exe -- test golden >/dev/null

echo "== timing golden: every workload at preset C =="
# dune runtest checks a subset; the full sweep pins the static timing
# analyzer's whole-program prediction to test/timing_golden.ml.
TRIPS_TIMING_GOLDEN_FULL=1 dune exec test/test_static_timing.exe -- test pred-golden >/dev/null

echo "== differential fuzzing: trips_run fuzz --seed 1 --count 200 =="
# Programs from seeds 1-200; the nightly CI job sweeps 5000 instead
# (TRIPS_FUZZ_FULL=1 without --count).  Any divergence exits nonzero
# with the auto-shrunk repro in the report, and the gate below reads
# summary.divergent.
dune exec bin/trips_run.exe -- fuzz --seed 1 --count 200 \
  --out fuzz-report.json >/dev/null

echo "== compiler gates: bench/BENCH_absint.json =="
dune exec bin/trips_run.exe -- gate bench/BENCH_absint.json \
  absint=absint-report.json transval=transval-report.json \
  fuzz=fuzz-report.json

echo "== static timing: trips_run timing --simple --xval =="
dune exec bin/trips_run.exe -- timing --simple --xval --preset C --format json \
  --out timing-report.json >/dev/null
dune exec bin/trips_run.exe -- gate bench/BENCH_timing.json \
  timing=timing-report.json

echo "== sim throughput: trips_run simbench --preset C --compare-ref =="
dune exec bin/trips_run.exe -- simbench --preset C --compare-ref \
  --out simbench-report.json

echo "== sampling accuracy: trips_run sampling --all --preset C =="
dune exec bin/trips_run.exe -- sampling --all --preset C --format json \
  --out sampling-report.json >/dev/null
dune exec bin/trips_run.exe -- gate bench/BENCH_sim.json \
  simbench=simbench-report.json sampling=sampling-report.json

echo "== serve smoke: trips_serve health + timing + metrics =="
# Direct _build paths: dune exec holds the project lock for the child's
# lifetime, which would deadlock the client calls against the daemon.
./_build/default/bin/trips_serve.exe --port 0 --workers 2 > serve.log 2>&1 &
serve_pid=$!
port=""
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' serve.log)
  [ -n "$port" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -n "$port" ] || {
  echo "trips_serve did not come up (see serve.log)" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
./_build/default/bin/trips_run.exe serve-client health --port "$port" \
  | grep -q '"status": "ok"' || {
  echo "serve smoke: /health did not answer ok" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
./_build/default/bin/trips_run.exe serve-client timing fft --preset C \
  --port "$port" | grep -q '"ok": true' || {
  echo "serve smoke: timing request failed" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
./_build/default/bin/trips_run.exe serve-client metrics --port "$port" \
  | grep -q '"requests": ' || {
  echo "serve smoke: /metrics did not report counters" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
kill -TERM "$serve_pid"
wait "$serve_pid" || true
echo "serve smoke: health + timing + metrics OK on port $port"

echo "== serve load benchmark: trips_run serve-bench =="
dune exec bin/trips_run.exe -- serve-bench --out serve-report.json
dune exec bin/trips_run.exe -- gate bench/BENCH_serve.json \
  serve=serve-report.json

echo "== error smoke: bad arguments exit 124, never 125 =="
# --sim, --preset, --format, --jobs, --count and --top are checked by
# cmdliner (exit 124) before any benchmark is compiled or interpreted; run
# models only C and H.  An unknown benchmark or experiment is a one-line
# error too, never an uncaught exception (125).
for args in "run fft --sim spec" "run fft --preset O0" \
  "lint --bench fft --preset Z" "disasm nosuch" "--id nosuch" \
  "--id table1 --format xml" "--id table1 --jobs 0" "fuzz --count=-3" \
  "timing --bench fft --top=-3"; do
  status=0
  dune exec bin/trips_run.exe -- $args >/dev/null 2>&1 || status=$?
  [ "$status" = "124" ] || {
    echo "trips_run $args exited $status, expected 124" >&2
    exit 1
  }
done

echo "== engine smoke: trips_run --id table1 --jobs 2 --format json =="
out=$(dune exec bin/trips_run.exe -- --id table1 --jobs 2 --format json 2>/dev/null)
echo "$out" | grep -q '"title": "Table 1' || {
  echo "engine smoke test failed: no JSON table on stdout" >&2
  exit 1
}
echo "$out" | head -3

echo "== all checks passed =="
