#!/usr/bin/env bash
# Tier-2 gate: everything a PR must pass, in one command.
#
#   scripts/check.sh            # tier-1 pytest + perfbench tests + domain lint + mypy + ruff
#   scripts/check.sh --fast     # skip the (slow) tier-1 pytest and perfbench runs
#
# The perfbench stage runs the benchmark driver's own tests
# (perfbench/test_perfbench.py, ~20 s), which read the serve metrics and
# spans that perfbench/run.py consumes.
#
# The first three stages are self-contained (stdlib + the repo itself).
# mypy and ruff are optional extras (`pip install .[lint]`); when a tool
# is not installed the stage is SKIPPED with a notice instead of
# failing, so the gate degrades gracefully on minimal containers.
set -u

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

PYTHON="${PYTHON:-python3}"
command -v "$PYTHON" >/dev/null 2>&1 || PYTHON=python

failures=0
declare -a results=()

note() { printf '\n== %s ==\n' "$1"; }

record() {  # record <name> <status>
    results+=("$(printf '%-12s %s' "$1" "$2")")
    [ "$2" = FAIL ] && failures=$((failures + 1))
}

run_stage() {  # run_stage <name> <cmd...>
    note "$1"
    if "${@:2}"; then
        record "$1" PASS
    else
        record "$1" FAIL
    fi
}

skip_stage() {  # skip_stage <name> <reason>
    note "$1"
    echo "SKIPPED: $2"
    record "$1" "SKIP ($2)"
}

if [ "${1:-}" = "--fast" ]; then
    skip_stage pytest "--fast requested"
    skip_stage perfbench "--fast requested"
else
    run_stage pytest "$PYTHON" -m pytest -q
    run_stage perfbench "$PYTHON" -m pytest perfbench -q
fi

run_stage lint "$PYTHON" -m repro.lint check src/repro \
    --baseline lint-baseline.json

if "$PYTHON" -c 'import mypy' >/dev/null 2>&1; then
    run_stage mypy "$PYTHON" -m mypy
else
    skip_stage mypy "mypy not installed; pip install .[lint]"
fi

if command -v ruff >/dev/null 2>&1; then
    run_stage ruff ruff check src/repro
elif "$PYTHON" -c 'import ruff' >/dev/null 2>&1; then
    run_stage ruff "$PYTHON" -m ruff check src/repro
else
    skip_stage ruff "ruff not installed; pip install .[lint]"
fi

note summary
printf '%s\n' "${results[@]}"
if [ "$failures" -gt 0 ]; then
    echo "FAILED: $failures stage(s)"
    exit 1
fi
echo "OK"
