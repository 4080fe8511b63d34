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

echo "== static analyzer: trips_run lint --all --strict =="
dune exec bin/trips_run.exe -- lint --all --strict --out lint-report.json

echo "== translation validation: trips_run transval --all (full matrix) =="
# All four EDGE pipelines (O0/C/H/BB) plus the RISC backend over every
# workload; hash-consed terms keep the whole sweep around ten seconds.
TRIPS_TRANSVAL_FULL=1 dune exec bin/trips_run.exe -- transval --all --strict \
  --out transval-report.json >/dev/null
refuted=$(sed -n 's/.*"refuted": \([0-9]*\).*/\1/p' transval-report.json | tail -1)
proved=$(sed -n 's/.*"proved": \([0-9]*\).*/\1/p' transval-report.json | tail -1)
echo "translation validation: $proved block(s) proved, $refuted refuted"
[ "$refuted" = "0" ] || {
  echo "translation validation refuted a pass (see transval-report.json)" >&2
  exit 1
}

echo "== global abstract interpretation: trips_run absint --all --strict =="
# Fact/hit payoff ledger for the global optimizer.  Soundness is covered
# by the transval stage above (the full matrix re-derives and replays
# every applied global fact and LSID relaxation); here we gate that the
# passes keep actually firing.
dune exec bin/trips_run.exe -- absint --all --preset C --preset H --preset BB \
  --strict --out absint-report.json >/dev/null
hits=$(sed -n 's/.*"total_hits": \([0-9]*\).*/\1/p' absint-report.json | tail -1)
min_hits=$(sed -n 's/.*"min_global_hits": \([0-9]*\).*/\1/p' bench/BENCH_absint.json)
programs=$(sed -n 's/.*"programs": \([0-9]*\).*/\1/p' absint-report.json | tail -1)
awk -v h="$hits" -v mh="$min_hits" -v n="$programs" 'BEGIN {
  if (h == "" || n == "") {
    print "absint: summary missing from absint-report.json" > "/dev/stderr"
    exit 1
  }
  printf "global optimization: %d hit(s) across %d program(s) (min %d)\n", h, n, mh
  if (h + 0 < mh + 0) {
    print "global optimization hits regressed past bench/BENCH_absint.json threshold" > "/dev/stderr"
    exit 1
  }
}'

echo "== absint fact golden: every workload x O0/C/H/BB =="
# dune runtest checks a subset; the full sweep pins every fact the
# analysis exposes to test/absint_golden.ml.
TRIPS_ABSINT_GOLDEN_FULL=1 dune exec test/test_absint.exe -- test golden >/dev/null

echo "== sampled golden: every workload at preset C =="
# dune runtest checks a subset; the full sweep pins every Sampled.run
# estimate to test/sampled_golden.ml.
TRIPS_SAMPLED_GOLDEN_FULL=1 dune exec test/test_sim_parity.exe -- test sampled_golden >/dev/null

echo "== exec golden: every workload at preset C =="
# dune runtest checks a subset; the full sweep pins the functional
# emulator's result and all of its statistics to test/exec_golden.ml.
TRIPS_EXEC_GOLDEN_FULL=1 dune exec test/test_exec.exe >/dev/null

echo "== differential fuzzing: trips_run fuzz --seed 1 =="
# 100-program smoke by default; TRIPS_FUZZ_FULL=1 deepens the sweep to
# 5000 programs (the nightly configuration).  Any divergence exits
# nonzero with the auto-shrunk repro in the report.
dune exec bin/trips_run.exe -- fuzz --seed 1 --out fuzz-report.json >/dev/null
divergent=$(sed -n 's/.*"divergent": \([0-9]*\).*/\1/p' fuzz-report.json | head -1)
checked=$(sed -n 's/.*"count": \([0-9]*\).*/\1/p' fuzz-report.json | head -1)
echo "differential fuzzing: $checked program(s), $divergent divergence(s)"
[ "$divergent" = "0" ] || {
  echo "differential fuzzing found divergences (see fuzz-report.json)" >&2
  exit 1
}

echo "== static timing: trips_run timing --simple --xval =="
dune exec bin/trips_run.exe -- timing --simple --xval --preset C --format json \
  --out timing-report.json >/dev/null
mape=$(sed -n 's/.*"mape": \([0-9.eE+-]*\).*/\1/p' timing-report.json | tail -1)
pearson=$(sed -n 's/.*"pearson": \([0-9.eE+-]*\).*/\1/p' timing-report.json | tail -1)
max_mape=$(sed -n 's/.*"max_mape": \([0-9.]*\).*/\1/p' bench/BENCH_timing.json)
min_pearson=$(sed -n 's/.*"min_pearson": \([0-9.]*\).*/\1/p' bench/BENCH_timing.json)
awk -v m="$mape" -v p="$pearson" -v mm="$max_mape" -v mp="$min_pearson" 'BEGIN {
  if (m == "" || p == "") {
    print "timing cross-validation: summary missing from timing-report.json" > "/dev/stderr"
    exit 1
  }
  printf "timing cross-validation: mape %.1f%% (max %.1f), pearson %.3f (min %.2f)\n", m, mm, p, mp
  if (m + 0 > mm + 0 || p + 0 < mp + 0) {
    print "timing cross-validation regressed past bench/BENCH_timing.json thresholds" > "/dev/stderr"
    exit 1
  }
}'

echo "== sim throughput: trips_run simbench --preset C --compare-ref =="
dune exec bin/trips_run.exe -- simbench --preset C --compare-ref \
  --out simbench-report.json
speedup=$(sed -n 's/.*"speedup_vs_ref": \([0-9.eE+-]*\).*/\1/p' simbench-report.json | tail -1)
min_speedup=$(sed -n 's/.*"min_speedup_vs_ref": \([0-9.]*\).*/\1/p' bench/BENCH_sim.json)
samp_speedup=$(sed -n 's/.*"speedup_vs_plan_sampled": \([0-9.eE+-]*\).*/\1/p' simbench-report.json | tail -1)
min_samp=$(sed -n 's/.*"min_speedup_vs_plan_sampled": \([0-9.]*\).*/\1/p' bench/BENCH_sim.json)
awk -v s="$speedup" -v ms="$min_speedup" \
    -v sa="$samp_speedup" -v msa="$min_samp" 'BEGIN {
  if (s == "" || sa == "") {
    print "simbench: speedup fields missing from simbench-report.json" > "/dev/stderr"
    exit 1
  }
  printf "sim throughput: x%.2f vs reference (min x%.2f)\n", s, ms
  printf "sampled estimator: x%.2f vs plan interpreter (min x%.2f)\n", sa, msa
  if (s + 0 < ms + 0 || sa + 0 < msa + 0) {
    print "sim throughput regressed past bench/BENCH_sim.json thresholds" > "/dev/stderr"
    exit 1
  }
}'

echo "== sampling accuracy: trips_run sampling --all --preset C =="
dune exec bin/trips_run.exe -- sampling --all --preset C --format json \
  --out sampling-report.json >/dev/null
workloads=$(sed -n 's/.*"workloads": \([0-9][0-9]*\).*/\1/p' sampling-report.json | tail -1)
within=$(sed -n 's/.*"within_ci": \([0-9][0-9]*\).*/\1/p' sampling-report.json | tail -1)
samp_err=$(sed -n 's/.*"mean_abs_error_pct": \([0-9.eE+-]*\).*/\1/p' sampling-report.json | tail -1)
min_within=$(sed -n 's/.*"min_sampled_within_ci": \([0-9]*\).*/\1/p' bench/BENCH_sim.json)
max_samp_err=$(sed -n 's/.*"max_sampled_error_pct": \([0-9.]*\).*/\1/p' bench/BENCH_sim.json)
awk -v n="$workloads" -v w="$within" -v e="$samp_err" \
    -v mw="$min_within" -v me="$max_samp_err" 'BEGIN {
  if (n == "" || w == "" || e == "") {
    print "sampling: summary missing from sampling-report.json" > "/dev/stderr"
    exit 1
  }
  printf "sampling accuracy: %d/%d within 95%% CI (min %d), mean |error| %.2f%% (max %.1f)\n", w, n, mw, e, me
  if (w + 0 < mw + 0 || e + 0 > me + 0) {
    print "sampling accuracy regressed past bench/BENCH_sim.json thresholds" > "/dev/stderr"
    exit 1
  }
}'

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

echo "== serve load benchmark: bench/serve_bench =="
./_build/default/bench/serve_bench.exe --out serve-report.json
computed=$(sed -n 's/.*"computed": \([0-9]*\).*/\1/p' serve-report.json | head -1)
rate=$(sed -n 's/.*"coalesce_rate": \([0-9.eE+-]*\).*/\1/p' serve-report.json | head -1)
tp=$(sed -n 's/.*"peak_throughput_rps": \([0-9.eE+-]*\).*/\1/p' serve-report.json | head -1)
p99=$(sed -n 's/.*"peak_p99_s": \([0-9.eE+-]*\).*/\1/p' serve-report.json | head -1)
shed=$(sed -n 's/.*"shed": \([0-9]*\).*/\1/p' serve-report.json | tail -1)
max_computed=$(sed -n 's/.*"max_dedup_computed": \([0-9]*\).*/\1/p' bench/BENCH_serve.json)
min_rate=$(sed -n 's/.*"min_dedup_coalesce_rate": \([0-9.]*\).*/\1/p' bench/BENCH_serve.json)
min_tp=$(sed -n 's/.*"min_peak_throughput_rps": \([0-9.]*\).*/\1/p' bench/BENCH_serve.json)
max_p99=$(sed -n 's/.*"max_peak_p99_s": \([0-9.]*\).*/\1/p' bench/BENCH_serve.json)
min_shed=$(sed -n 's/.*"min_shed": \([0-9]*\).*/\1/p' bench/BENCH_serve.json)
awk -v c="$computed" -v r="$rate" -v t="$tp" -v p="$p99" -v s="$shed" \
    -v mc="$max_computed" -v mr="$min_rate" -v mt="$min_tp" -v mp="$max_p99" \
    -v ms="$min_shed" 'BEGIN {
  if (c == "" || r == "" || t == "" || p == "" || s == "") {
    print "serve bench: fields missing from serve-report.json" > "/dev/stderr"
    exit 1
  }
  printf "serve bench: dedup computed %d (max %d), coalesce rate %.2f (min %.2f)\n", c, mc, r, mr
  printf "serve bench: peak %.0f req/s (min %.0f), p99 %.4fs (max %.2fs), %d shed (min %d)\n", t, mt, p, mp, s, ms
  if (c + 0 > mc + 0 || r + 0 < mr + 0 || t + 0 < mt + 0 || p + 0 > mp + 0 || s + 0 < ms + 0) {
    print "serve bench regressed past bench/BENCH_serve.json thresholds" > "/dev/stderr"
    exit 1
  }
}'

echo "== run smoke: trips_run run rejects an unknown --sim =="
# --sim is an enumeration: cmdliner refuses an unknown simulator (exit
# 124) before the benchmark is compiled or interpreted.
status=0
dune exec bin/trips_run.exe -- run fft --sim spec >/dev/null 2>&1 || status=$?
[ "$status" = "124" ] || {
  echo "trips_run run fft --sim spec exited $status, expected 124" >&2
  exit 1
}

echo "== engine smoke: trips_run --id table1 --jobs 2 --format json =="
out=$(dune exec bin/trips_run.exe -- --id table1 --jobs 2 --format json 2>/dev/null)
echo "$out" | grep -q '"title": "Table 1' || {
  echo "engine smoke test failed: no JSON table on stdout" >&2
  exit 1
}
echo "$out" | head -3

echo "== all checks passed =="
