#!/usr/bin/env bash
# Stability tool for the repository benchmark.
#
#   bench/perf/repeat.sh N [FIRST_SEED]
#
# Runs every workload of BENCHMARK.json N times, each run with its own
# seed (FIRST_SEED, FIRST_SEED+1, ...; default 1) and the workloads in
# alternating order from one round to the next, using the command and
# run length BENCHMARK.json gives.  Then, per workload and end-to-end
# metric, it prints the median, the quartiles and the spread (Q3 - Q1
# over the median, as statistics.quantiles(values, n=4) gives them).
#
# Exits 1 when a run fails its correctness checks or does not print
# every end-to-end metric with its unit, or when a spread exceeds the
# metric's bound (setup_s excepted: its median is what is compared).
# Run from the root of the repository; results are kept in
# bench/perf/_out/repeat-<pid>.jsonl.
set -euo pipefail

n=${1:?usage: bench/perf/repeat.sh N [FIRST_SEED]}
seed=${2:-1}
mkdir -p bench/perf/_out
out=bench/perf/_out/repeat-$$.jsonl
: >"$out"

mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for ((i = 0; i < n; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do order+=("${workloads[k]}"); done
  fi
  for w in "${order[@]}"; do
    s=$((seed + i))
    line=$("${cmd[@]}" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' "$w" "$s" "${line:-null}" >>"$out"
    echo "repeat: $w seed $s done" >&2
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
ok = True
for r in rows:
    res = r["result"]
    if not res or not res.get("correct") or res.get("failed") != 0:
        print(f"FAIL {r['workload']} seed {r['seed']}: incorrect or no result")
        ok = False
        continue
    for m in bench["end_to_end"]:
        got = res["metrics"].get(m["name"])
        if not got or got.get("unit") != m["unit"]:
            print(f"FAIL {r['workload']} seed {r['seed']}: {m['name']} missing or wrong unit")
            ok = False

print(f"{'workload':9} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
for w in bench["workloads"]:
    runs = [r["result"] for r in rows if r["workload"] == w["name"] and r["result"]]
    for m in bench["end_to_end"]:
        vals = [x["metrics"][m["name"]]["value"] for x in runs if m["name"] in x["metrics"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            flag = "  OVER BOUND"
            ok = False
        elif m["name"] != "setup_s" and spread > m["bound"] / 3:
            flag = "  over bound/3"
        print(f"{w['name']:9} {m['name']:14} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {m['bound']:6.2f}{flag}")
sys.exit(0 if ok else 1)
EOF
