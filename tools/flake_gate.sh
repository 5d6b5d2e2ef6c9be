#!/usr/bin/env sh
# Flake gate: run the whole spmv_tests binary REPEATS times while one CPU
# burner per core competes for the host, so a test that depends on timing
# meets the contention that exposes it.  A single failing iteration fails
# the gate, and the script names every test that failed and how often.
# The full run log is kept in BUILD_DIR/flake_gate.log.
#
# Usage: tools/flake_gate.sh BUILD_DIR [REPEATS]   (REPEATS defaults to 10)
set -eu

build="${1:?usage: tools/flake_gate.sh BUILD_DIR [REPEATS]}"
repeats="${2:-10}"
bin="$build/spmv_tests"
log="$build/flake_gate.log"
if [ ! -x "$bin" ]; then
  echo "flake_gate: $bin not found (build the tests first)" >&2
  exit 2
fi

# Background pids (burners and the test run), stopped on any exit.
pids=""
cleanup() {
  if [ -n "$pids" ]; then
    # shellcheck disable=SC2086  # word splitting intended: a pid list
    kill $pids 2>/dev/null || true
  fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
i=0
while [ "$i" -lt "$cores" ]; do
  sh -c 'while :; do :; done' &
  pids="$pids $!"
  i=$((i + 1))
done

echo "flake_gate: $bin x$repeats next to $cores CPU burner(s)"
# In the background so a signal interrupts the wait and stops it too.
"$bin" --gtest_repeat="$repeats" --gtest_brief=1 >"$log" 2>&1 &
test_pid=$!
pids="$pids $test_pid"
status=0
wait "$test_pid" || status=$?

if [ "$status" -ne 0 ]; then
  echo "flake_gate: FAILED (exit $status); failing tests, by count:"
  # One line per failed run of a test (the per-iteration summaries repeat
  # the names without a duration).
  grep -E '^\[  FAILED  \] [A-Za-z0-9_/]+\.[A-Za-z0-9_/]+.* \([0-9]+ ms\)$' \
    "$log" | sed -E 's/^\[  FAILED  \] ([^ ,]+).*/\1/' | sort | uniq -c |
    sort -rn
  echo "--- last 60 lines of $log ---"
  tail -n 60 "$log"
  exit 1
fi
echo "flake_gate: $repeats/$repeats iterations passed"
