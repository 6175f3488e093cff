#!/usr/bin/env bash
# jmbench, the one command: configure and build the benchmark's Release
# binaries into benchmark/build/, run the workloads, print every metric
# by name with its unit, and write benchmark/out/results.json.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--reps N | --seconds S]
#                    [--trace [0|1]] [--smoke]
#   benchmark/run.sh --compare BASE.json NEW.json
#
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for arg in "$@"; do
    if [[ $arg == --compare ]]; then
        exec python3 "$here/jmbench.py" "$@"
    fi
done

if [[ ! -f $here/../src/CMakeLists.txt || ! -f $here/../tools/jrun_server.cc ]]; then
    echo "jmbench: the simulator sources (src/, tools/) are not beside benchmark/" >&2
    exit 2
fi

# Build output goes to stderr: the last stdout line is the result.
if [[ ! -f $here/build/CMakeCache.txt ]]; then
    generator=()
    if command -v ninja >/dev/null; then
        generator=(-G Ninja)
    fi
    cmake -S "$here" -B "$here/build" "${generator[@]}" >&2
fi
cmake --build "$here/build" -j "$(nproc)" >&2
exec python3 "$here/jmbench.py" "$@"
