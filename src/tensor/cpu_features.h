// Runtime ISA selection for the INT8 serving and fp32 GEMM kernel ladders.
//
// The ladder (tensor/quant.h, docs/kernels.md) has four arms —
//
//   scalar      plain int32 dot over the int8 codes (every platform)
//   sse2        pmaddwd over a pair-packed int16 layout (x86-64 baseline)
//   avx2        the same pair-packed layout, 8 outputs per step
//   avx512vnni  vpdpbusd over a quad-packed int8 layout, 16 outputs/step
//
// — and every arm accumulates in exact int32 and runs the identical fp32
// epilogue, so all arms are bit-identical (test_kernel_ladder enforces
// this; there is no error-bound escape hatch).  Which arm runs is decided
// ONCE, at quantize_per_row() time: the weight matrix is packed into the
// selected arm's layout and gemm_s8_nt dispatches on that layout.
//
// The fp32 GEMM (tensor/ops.h) and the SpMM (graph/spmm.h) follow the
// same rung on every call, with their own arms: avx512vnni runs their
// AVX-512 arms, avx2 their AVX2 arms, sse2 and scalar their scalar
// oracles (gemm_f32_arm() names the choice).
//
// Selection = min(requested, what this CPU+OS can run), in ladder order:
// requesting an arm the host lacks degrades to the widest arm below it,
// never errors.  The default request is best_supported_isa(); the
// PPGNN_ISA environment variable (scalar|sse2|avx2|avx512vnni) or
// set_isa_override() forces any arm for testing and benchmarking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ppgnn {

// Ladder order: each arm strictly wider than the previous.  Keep the
// values dense and ascending — resolve_isa() and the per-arm tables in
// sim/hardware.h index on them.
enum class Isa : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512Vnni = 3,
};
inline constexpr std::size_t kNumIsa = 4;

// "scalar" | "sse2" | "avx2" | "avx512vnni".
const char* isa_name(Isa isa);
// Inverse of isa_name; returns false (out untouched) for unknown names.
bool parse_isa(const std::string& name, Isa* out);

// Whether this binary contains the arm's kernel at all (an AVX2 kernel is
// compiled on any x86-64 build; never on other architectures).
bool isa_compiled(Isa isa);
// isa_compiled AND this CPU + OS can execute it: CPUID feature bits plus
// the XGETBV check that the OS actually saves the wider register state
// (a kernel booted with AVX-512 disabled reports the CPUID bit but would
// fault on the first zmm instruction — the probe catches that).
bool isa_supported(Isa isa);
// The widest supported arm on this host.
Isa best_supported_isa();

// min(requested, best supported): forcing down is always honored, forcing
// up degrades to the widest arm the host can run.  Never throws.
Isa resolve_isa(Isa requested);

// The arm quantize_per_row() packs for when no explicit arm is given:
// resolve_isa(PPGNN_ISA) if the variable is set and parses (an
// unrecognized value warns once on stderr and is ignored), otherwise
// best_supported_isa().  Cached after the first read; set_isa_override()
// replaces it (resolved), clear_isa_override() re-derives from the
// environment — both are for tests and benches that walk the ladder
// inside one process.
Isa active_isa();
void set_isa_override(Isa isa);
void clear_isa_override();

}  // namespace ppgnn
