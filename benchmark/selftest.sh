#!/usr/bin/env bash
# jmbench self-test: run the traced smoke benchmark (one rep of every
# workload at shrunken sizes) and check its output against
# BENCHMARK.json. It asserts that every declared end-to-end and
# per-layer metric appears for every workload with its declared unit,
# that failed_frac is 0 everywhere, and that out/trace.json parses.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

mkdir -p "$here/out"
start=$(date +%s)
"$here/run.sh" --smoke --trace >"$here/out/selftest.log"
echo "smoke run (build included) took $(($(date +%s) - start)) s"

python3 - "$here" <<'EOF'
import json
import sys
from pathlib import Path

here = Path(sys.argv[1])
spec = json.loads((here.parent / "BENCHMARK.json").read_text())
results = json.loads((here / "out" / "results.json").read_text())["workloads"]
trace = json.loads((here / "out" / "trace.json").read_text())
last = json.loads((here / "out" / "selftest.log").read_text().splitlines()[-1])

problems = []
if set(last) != {"correct", "attempted", "failed", "metrics"} or not last["correct"]:
    problems.append(f"bad result line: {sorted(last)} correct={last.get('correct')}")
if not trace.get("traceEvents"):
    problems.append("trace.json holds no events")
for w in (x["name"] for x in spec["workloads"]):
    r = results.get(w)
    if r is None:
        problems.append(f"{w}: no results")
        continue
    if r["failed_frac"] != 0:
        problems.append(f"{w}: failed_frac {r['failed_frac']}: {r['errors']}")
    for kind, got in (("end_to_end", r["e2e"]), ("per_layer", r.get("per_layer", {}))):
        for m in spec[kind]:
            have = got.get(m["name"])
            if have is None:
                problems.append(f"{w}: {kind} metric {m['name']} missing")
            elif have["unit"] != m["unit"]:
                problems.append(f"{w}: {m['name']} in {have['unit']}, declared {m['unit']}")
for p in problems:
    print("selftest:", p)
print("selftest", "FAILED" if problems else "OK")
sys.exit(1 if problems else 0)
EOF
