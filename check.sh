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

echo "== dune runtest, every golden row =="
# A plain dune runtest checks a fast subset of each golden table;
# TRIPS_GOLDEN_FULL checks every row (compiled code, emulator stats and
# instance streams, Core against Core_ref's cycle stats, sampled
# estimates, timing predictions, absint facts) and that each fixture
# holds exactly the suite's keys (test/golden.ml).
TRIPS_GOLDEN_FULL=1 dune runtest

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

echo "== differential fuzzing: trips_run fuzz --seed 1 --count 200 =="
# Programs from seeds 1-200; the nightly CI job sweeps 5000 instead
# (--count 5000).  Any divergence exits nonzero
# with the auto-shrunk repro in the report, and the gate below reads
# summary.divergent.
dune exec bin/trips_run.exe -- fuzz --seed 1 --count 200 \
  --out fuzz-report.json >/dev/null

echo "== compiler gates: bench/BENCH_absint.json =="
dune exec bin/trips_run.exe -- gate bench/BENCH_absint.json \
  absint=absint-report.json transval=transval-report.json \
  fuzz=fuzz-report.json

echo "== static timing: trips_run timing --xval (the Simple suite) =="
dune exec bin/trips_run.exe -- timing --xval --preset C --format json \
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
# cmdliner (exit 124) before any benchmark is compiled, interpreted,
# simulated or served; run
# models only C and H.  An unknown benchmark or experiment is a one-line
# error too, never an uncaught exception (125).
for args in "run fft --sim spec" "run fft --preset O0" \
  "lint --bench fft --preset Z" "disasm nosuch" "--id nosuch" \
  "--id table1 --format xml" "--id table1 --jobs 0" "fuzz --count=-3" \
  "timing --bench fft --top=-3" "simbench --format xml" \
  "serve-bench --format xml"; do
  status=0
  dune exec bin/trips_run.exe -- $args >/dev/null 2>&1 || status=$?
  [ "$status" = "124" ] || {
    echo "trips_run $args exited $status, expected 124" >&2
    exit 1
  }
done

echo "== engine smoke: trips_run --id table1 --id fig8 --jobs 1 --format json =="
# fig8 has a warm sub-job, so one worker exercises the warm-then-run path
out=$(dune exec bin/trips_run.exe -- --id table1 --id fig8 --jobs 1 --format json 2>/dev/null)
for title in '"title": "Table 1' '"title": "Figure 8 (left)'; do
  echo "$out" | grep -q "$title" || {
    echo "engine smoke test failed: no $title JSON table on stdout" >&2
    exit 1
  }
done
echo "$out" | head -3

echo "== all checks passed =="
