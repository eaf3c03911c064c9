#!/usr/bin/env bash
# Dead-API probe: lists the rpt:: functions that librpt.a defines and no
# production binary keeps once the linker drops unreferenced sections.
#
# Builds the library, every test, bench and example, and rptbench/, all with
# -ffunction-sections -fdata-sections and -Wl,--gc-sections, in a work
# directory outside the source tree. Then it reads each binary's defined
# text symbols with `nm -C --defined-only` and prints the functions of
# librpt.a that no bench, example or rptbench binary keeps, in two groups:
#
#   reached only from tests  some test binary keeps them;
#   reached from nothing     no binary keeps them. Most of these are private
#                            helpers inlined at every call site, so check
#                            each one before calling it dead.
#
# A function's split parts (`[clone .cold]`, `.isra`, `.constprop`, ...)
# fold into the function. Functions are matched by demangled name, so two
# same-named static helpers in different files count once.
#
# Usage: scripts/dead_api.sh [work-dir]
#
# Without work-dir the builds go to a temporary directory deleted on exit.
# JOBS (default: nproc) sets the build parallelism. It needs two full
# Release builds, so CI does not run it.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
if [ $# -ge 1 ]; then
  WORK="$1"
  mkdir -p "$WORK"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
fi
case "$(cd "$WORK" && pwd)/" in
  "$ROOT"/*) echo "FAIL: work-dir must lie outside the source tree" >&2; exit 1 ;;
esac

CONFIG=(-DCMAKE_BUILD_TYPE=Release
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S "$ROOT" -B "$WORK/rpt" "${CONFIG[@]}" > /dev/null
cmake --build "$WORK/rpt" -j "$JOBS" > /dev/null
cmake -S "$ROOT/rptbench" -B "$WORK/rptbench" "${CONFIG[@]}" > /dev/null
cmake --build "$WORK/rptbench" -j "$JOBS" > /dev/null

# Sorted, de-duplicated rpt:: functions (text symbols, weak ones included:
# inline and template functions emitted out of line) the given files define.
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '/^[0-9a-f]+ [TtWw] rpt::/ { sub(/^[0-9a-f]+ [TtWw] /, ""); print }' |
    sed -E 's/ \[clone [^]]*\]//g' | LC_ALL=C sort -u
}

binaries() {
  local dir="$1"
  for source in "$ROOT/$dir"/*.cpp; do
    echo "$WORK/rpt/$(basename "$source" .cpp)"
  done
}

mapfile -t TESTS < <(binaries tests)
mapfile -t PRODUCTION < <(binaries bench; binaries examples)
PRODUCTION+=("$WORK/rptbench/rptbench")

functions "$WORK/rpt/librpt.a" > "$WORK/library.txt"
functions "${TESTS[@]}" > "$WORK/tests.txt"
functions "${PRODUCTION[@]}" > "$WORK/production.txt"
LC_ALL=C comm -23 "$WORK/library.txt" "$WORK/production.txt" > "$WORK/unkept.txt"
LC_ALL=C comm -12 "$WORK/unkept.txt" "$WORK/tests.txt" > "$WORK/tests-only.txt"
LC_ALL=C comm -23 "$WORK/unkept.txt" "$WORK/tests.txt" > "$WORK/nothing.txt"

echo "librpt.a defines $(wc -l < "$WORK/library.txt") rpt:: functions;" \
  "$(wc -l < "$WORK/unkept.txt") are kept by no bench, example or rptbench binary."
echo
echo "## reached only from tests ($(wc -l < "$WORK/tests-only.txt"))"
cat "$WORK/tests-only.txt"
echo
echo "## reached from nothing ($(wc -l < "$WORK/nothing.txt"))"
cat "$WORK/nothing.txt"
