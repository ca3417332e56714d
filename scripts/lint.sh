#!/usr/bin/env bash
# Run clang-tidy over the TECO sources using the repo's .clang-tidy.
#
# Usage:
#   scripts/lint.sh                 # lint every .cpp under src/, tools/, bench/
#   scripts/lint.sh file.cpp ...    # lint the given files (CI: changed files)
#
# Requires a compile database; one is generated into build/ if missing.
# Degrades gracefully (exit 0 with a notice) when clang-tidy is not
# installed, so the script is safe to call from hooks on minimal machines.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

# --- Happens-before trace lint (teco::mc) -----------------------------------
# When the hb_lint example is built, replay the reference training loop
# under `check = hb` and fail on any unordered cross-agent access — plus
# the planted-race mode, which must still be caught (analyzer sensitivity).
# Skipped quietly when the binary is not built; static lint continues.
hb_lint_bin="${TECO_BUILD_DIR:-build}/examples/hb_lint"
if [[ -x "${hb_lint_bin}" ]]; then
  echo "lint.sh: happens-before trace lint"
  "${hb_lint_bin}"
  "${hb_lint_bin}" --planted 2>/dev/null >/dev/null ||
    { echo "lint.sh: hb_lint --planted missed the planted race" >&2; exit 1; }
else
  echo "lint.sh: ${hb_lint_bin} not built; skipping the HB trace lint"
fi

# --- teco-lint: determinism static analysis ---------------------------------
# Token-level linter (tools/lint/teco_lint.cpp) over src/: unordered-iter,
# wallclock, ptr-order and fp-reduce. The committed tree must carry zero
# unsuppressed findings, and the allow() suppression count is budgeted —
# raising TECO_LINT_MAX_SUPPRESSIONS is a deliberate, reviewed act.
# Before trusting the clean run, the linter proves its own sensitivity on
# the committed fixtures: the clean fixture must stay silent and every
# planted fixture must trip its rule, else we fail loudly (a linter that
# stopped seeing hazards would otherwise pass everything forever).
teco_lint_bin="${TECO_BUILD_DIR:-build}/tools/lint/teco_lint"
if [[ ! -x "${teco_lint_bin}" ]]; then
  echo "lint.sh: building teco_lint"
  cmake -B "${TECO_BUILD_DIR:-build}" -S . >/dev/null &&
    cmake --build "${TECO_BUILD_DIR:-build}" --target teco_lint >/dev/null ||
    { echo "lint.sh: failed to build teco_lint" >&2; exit 1; }
fi

echo "lint.sh: teco-lint fixture self-test"
"${teco_lint_bin}" --no-summary tests/lint_fixtures/clean.cpp ||
  { echo "lint.sh: teco-lint flagged the clean fixture" >&2; exit 1; }
for rule in unordered_iter wallclock ptr_order fp_reduce; do
  fixture="tests/lint_fixtures/planted_${rule}.cpp"
  if "${teco_lint_bin}" --no-summary "${fixture}" >/dev/null 2>&1; then
    echo "lint.sh: teco-lint MISSED the planted ${rule} fixture" >&2
    exit 1
  fi
done

echo "lint.sh: teco-lint over src/"
"${teco_lint_bin}" --max-suppressions="${TECO_LINT_MAX_SUPPRESSIONS:-6}" src ||
  { echo "lint.sh: teco-lint found hazards (or the suppression budget grew)" >&2
    exit 1; }

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint.sh: clang-tidy not found; skipping lint (install LLVM to enable)"
  exit 0
fi

build_dir="${TECO_BUILD_DIR:-build}"
if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "lint.sh: generating compile database in ${build_dir}/"
  cmake -B "${build_dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

if [[ $# -gt 0 ]]; then
  files=()
  for f in "$@"; do
    [[ "${f}" == *.cpp ]] && files+=("${f}")
  done
else
  mapfile -t files < <(find src tools bench -name '*.cpp' 2>/dev/null | sort)
fi

if [[ ${#files[@]} -eq 0 ]]; then
  echo "lint.sh: no .cpp files to lint"
  exit 0
fi

echo "lint.sh: linting ${#files[@]} file(s)"
clang-tidy -p "${build_dir}" --quiet "${files[@]}"
