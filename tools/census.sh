#!/bin/sh
# Link-time census of the library: prints, sorted and demangled, every
# out-of-line function (nm type T) that an object under <build>/src defines
# and that none of the nine product binaries keeps.
#
#   tools/census.sh <build> <perfbench-build>
#
# The product is xlayer_cli, the five examples, bench_figures and
# bench_kernels from <build>, and perfbench from <perfbench-build>. Both trees
# must be built with -O0 -ffunction-sections -fdata-sections and linked with
# -Wl,--gc-sections, so that no call edge is inlined away and the linker drops
# every function no binary reaches:
#
#   cmake -B build-census -S . -DCMAKE_BUILD_TYPE=Census \
#     '-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections' \
#     -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#   cmake --build build-census -j --target xlayer_cli quickstart \
#     amr_isosurface_demo coupled_insitu_intransit machine_scale_experiment \
#     visualization_pipeline bench_figures bench_kernels
#   (the same for -S perfbench into build-census-pb, target perfbench)
#
# Header-only functions are inline (weak symbols) and are not counted. The
# CI lint job diffs the output against tools/census_expected.txt with its
# comments and blank lines stripped.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <build> <perfbench-build>" >&2
  exit 2
fi
build=$1
pb=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bin in "$build/tools/xlayer_cli" \
           "$build/examples/quickstart" \
           "$build/examples/amr_isosurface_demo" \
           "$build/examples/coupled_insitu_intransit" \
           "$build/examples/machine_scale_experiment" \
           "$build/examples/visualization_pipeline" \
           "$build/bench/bench_figures" \
           "$build/bench/bench_kernels" \
           "$pb/perfbench"; do
  if [ ! -x "$bin" ]; then
    echo "census: missing product binary $bin" >&2
    exit 2
  fi
  nm --defined-only "$bin"
done | awk 'NF == 3 { print $3 }' | sort -u > "$tmp/kept"

objects=$(find "$build/src" -name '*.o' | sort)
if [ -z "$objects" ]; then
  echo "census: no objects under $build/src" >&2
  exit 2
fi
# shellcheck disable=SC2086 # one argument per object path
nm --defined-only $objects | awk 'NF == 3 && $2 == "T" { print $3 }' |
  sort -u > "$tmp/defined"

comm -23 "$tmp/defined" "$tmp/kept" | c++filt | LC_ALL=C sort
