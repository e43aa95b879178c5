#!/usr/bin/env bash
# ISA confinement check for the 16-lane kernels (src/tensor/ops_avx512.cc).
#
# Only the functions marked PO_AVX512 there — all named
# prefillonly::(anonymous namespace)::Avx512* — may touch a zmm register:
# they run only after GetKernelOps has seen AVX-512F in cpuid. Any other
# function that does (say a std::vector or std::fill instantiation compiled
# with AVX-512 enabled and kept by the linker for the whole program) would
# fault on an AVX2-only host, which no test on an AVX-512 host can show.
# This disassembles the library and fails on such a function.
#
# Usage: scripts/check_isa_confinement.sh [path/to/libprefillonly_core.a]
set -euo pipefail

lib="${1:-build/libprefillonly_core.a}"
if [[ ! -f "$lib" ]]; then
  echo "check_isa_confinement: no library at $lib (build it first)" >&2
  exit 2
fi

# Demangled name of every function with at least one zmm operand.
zmm_functions="$(objdump -d --no-show-raw-insn -C "$lib" | awk '
  /^[0-9a-f]+ <.*>:$/ { fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn); next }
  /%zmm/ { if (!(fn in seen)) { seen[fn] = 1; print fn } }')"

if [[ -z "$zmm_functions" ]]; then
  # The kernels compile on every x86-64 GCC/Clang build, whatever the host
  # CPU, so finding none means this check no longer sees them.
  echo "check_isa_confinement: no function in $lib uses zmm; expected the Avx512* kernels" >&2
  exit 1
fi

allowed='(^|[ ])prefillonly::\(anonymous namespace\)::Avx512[A-Za-z0-9_]*[<(]'
strays="$(grep -Ev "$allowed" <<<"$zmm_functions" || true)"
echo "zmm users in $lib: $(wc -l <<<"$zmm_functions") function(s)"
if [[ -n "$strays" ]]; then
  echo "check_isa_confinement: zmm registers outside the Avx512* kernels:" >&2
  echo "$strays" >&2
  exit 1
fi
echo "check_isa_confinement: ok, every zmm user is an Avx512* kernel"
