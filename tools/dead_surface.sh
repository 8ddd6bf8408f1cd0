#!/usr/bin/env bash
# Lists the library functions that no shipped binary keeps, and checks
# the list against tools/dead_surface_allowlist.txt.
#
#   tools/dead_surface.sh [build-dir]     (default: build-dead-surface)
#
# Builds the library, tools, benches and examples (no tests), and the
# mdrr_perfbench binary, at -O0 with one section per function, and links
# every binary with --gc-sections. A text symbol defined in a
# libmdrr_*.a that no binary keeps is only reachable from tests. -O0
# keeps inline functions out of line, so a function the optimizer would
# inline everywhere is not mistaken for dead. Instantiations of std::
# and __gnu_cxx:: templates are the compiler's, not the library's, and
# a lambda (or a template instantiated on one) lives and dies with the
# function that defines it, so both are left out.
#
# Exits 1 when the scan reports a symbol the allowlist does not name,
# or the allowlist names a symbol the scan no longer reports. Each
# allowlist line is `<demangled symbol>\t<reason>`; lines starting with
# # are comments.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/build-dead-surface}"
allowlist="$root/tools/dead_surface_allowlist.txt"
jobs="$(nproc 2> /dev/null || echo 2)"

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/main" "${flags[@]}" -DMDRR_BUILD_TESTS=OFF \
  -DMDRR_CHECK_HEADERS=OFF > /dev/null
cmake --build "$out/main" -j "$jobs" > /dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" > /dev/null
cmake --build "$out/perfbench" -j "$jobs" --target mdrr_perfbench > /dev/null

binaries=("$out/main/mdrr_cli" "$out/main/mdrr_collectd"
          "$out/main/mdrr_worker" "$out/perfbench/mdrr_perfbench")
for binary in "$out"/main/bench_* "$out"/main/example_*; do
  [ -x "$binary" ] && [ -f "$binary" ] && binaries+=("$binary")
done

text_symbols() {  # mangled names of defined text symbols
  nm --defined-only "$@" 2> /dev/null | awk '$2 ~ /^[TtWw]$/ { print $3 }'
}

library="$(mktemp)"
kept="$(mktemp)"
dead="$(mktemp)"
expected="$(mktemp)"
trap 'rm -f "$library" "$kept" "$dead" "$expected"' EXIT

text_symbols "$out"/main/libmdrr_*.a | sort -u > "$library"
text_symbols "${binaries[@]}" | sort -u > "$kept"
comm -23 "$library" "$kept" | grep -Ev '^_Z(N[rVKO]*)?(St|9__gnu_cxx)' \
  | c++filt | grep -Fv '{lambda(' | sort -u > "$dead"
sed -e '/^#/d' -e '/^[[:space:]]*$/d' "$allowlist" | cut -f1 \
  | sort -u > "$expected"

echo "dead_surface: ${#binaries[@]} binaries, $(wc -l < "$dead") library" \
  "symbols no binary keeps"
status=0
unlisted="$(comm -23 "$dead" "$expected")"
stale="$(comm -13 "$dead" "$expected")"
if [ -n "$unlisted" ]; then
  echo "reached only from tests (delete them, or allowlist with a reason):"
  echo "$unlisted" | sed 's/^/  /'
  status=1
fi
if [ -n "$stale" ]; then
  echo "allowlisted but no longer reported (drop them from the allowlist):"
  echo "$stale" | sed 's/^/  /'
  status=1
fi
exit "$status"
