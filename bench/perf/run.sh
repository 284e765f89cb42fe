#!/usr/bin/env bash
# Builds ckptfi_perf from the sources in this checkout, then runs it.
#
#   bash bench/perf/run.sh                       # every workload, untraced
#   bash bench/perf/run.sh --workload train_grid --seed 42 --seconds 10 --trace 0
#   bash bench/perf/run.sh --record out.json     # two sets of five + a traced run
#   bash bench/perf/run.sh --compare A.json B.json
#
# Run it from the repository root. The build and every file a run writes go
# under ${CARGO_TARGET_DIR:-.bench_build}/ckptfi_perf; build output goes to
# build.log there, and only the benchmark's own report reaches stdout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}/ckptfi_perf"
jobs=$(nproc)
if [ "$jobs" -gt 4 ]; then jobs=4; fi

mkdir -p "$build"
if ! { cmake -S bench/perf -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs" --target ckptfi_perf; } > "$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: building ckptfi_perf failed (log: $build/build.log)" >&2
  exit 1
fi

perf=("$build/ckptfi_perf" --workdir "$build/work")
if [ $# -gt 0 ]; then
  exec "${perf[@]}" "$@"
fi
status=0
for workload in train_grid predict_deep predict_full fleet_grid; do
  "${perf[@]}" --workload "$workload" || status=1
done
exit $status
