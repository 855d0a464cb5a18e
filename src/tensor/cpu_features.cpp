#include "tensor/cpu_features.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "tensor/quant_kernels.h"

namespace ppgnn {

namespace {

#if defined(__x86_64__) || defined(__i386__)

// XCR0 via xgetbv — only legal after CPUID reports OSXSAVE, which is why
// probe() checks that bit first.  Inline asm instead of _xgetbv so the
// base translation unit needs no -mxsave.
std::uint64_t xcr0() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

struct CpuProbe {
  bool sse2 = false, avx2 = false, avx512vnni = false;
};

CpuProbe probe_cpu() {
  CpuProbe p;
  std::uint32_t eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return p;
  p.sse2 = (edx >> 26) & 1;
  const bool osxsave = (ecx >> 27) & 1;
  if (!osxsave) return p;  // OS saves no extended state: xmm-era only
  const std::uint64_t x = xcr0();
  const bool ymm_state = (x & 0x6) == 0x6;          // XMM + YMM
  const bool zmm_state = (x & 0xe6) == 0xe6;        // + opmask, zmm0-31
  std::uint32_t b7 = 0, c7 = 0, d7 = 0;
  eax = 0;
  if (!__get_cpuid_count(7, 0, &eax, &b7, &c7, &d7)) return p;
  p.avx2 = ymm_state && ((b7 >> 5) & 1);
  // The VNNI arm uses only AVX-512F ops plus vpdpbusd itself.
  const bool avx512f = (b7 >> 16) & 1;
  const bool vnni = (c7 >> 11) & 1;
  p.avx512vnni = zmm_state && avx512f && vnni;
  return p;
}

#else

struct CpuProbe {
  bool sse2 = false, avx2 = false, avx512vnni = false;
};
CpuProbe probe_cpu() { return {}; }

#endif

const CpuProbe& cached_probe() {
  static const CpuProbe p = probe_cpu();
  return p;
}

// The arm active_isa() returns, already resolved: forced by
// set_isa_override() or derived from the environment on first use.
// kNumIsa = not derived yet (start-up, or after clear_isa_override()).
std::atomic<std::uint8_t> g_active{static_cast<std::uint8_t>(kNumIsa)};

Isa env_default() {
  const char* env = std::getenv("PPGNN_ISA");
  if (env && *env) {
    Isa requested;
    if (parse_isa(env, &requested)) return resolve_isa(requested);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "[ppgnn] ignoring unrecognized PPGNN_ISA=%s "
                   "(scalar|sse2|avx2|avx512vnni)\n",
                   env);
    }
  }
  return best_supported_isa();
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512Vnni:
      return "avx512vnni";
  }
  return "scalar";
}

bool parse_isa(const std::string& name, Isa* out) {
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (name == isa_name(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
      return detail::have_sse2_kernel();
    case Isa::kAvx2:
      return detail::have_avx2_kernel();
    case Isa::kAvx512Vnni:
      return detail::have_avx512vnni_kernel();
  }
  return false;
}

bool isa_supported(Isa isa) {
  if (!isa_compiled(isa)) return false;
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
      return cached_probe().sse2;
    case Isa::kAvx2:
      return cached_probe().avx2;
    case Isa::kAvx512Vnni:
      return cached_probe().avx512vnni;
  }
  return false;
}

Isa best_supported_isa() {
  for (std::size_t i = kNumIsa; i-- > 0;) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_supported(isa)) return isa;
  }
  return Isa::kScalar;
}

Isa resolve_isa(Isa requested) {
  for (std::size_t i = static_cast<std::size_t>(requested) + 1; i-- > 0;) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_supported(isa)) return isa;
  }
  return Isa::kScalar;
}

Isa active_isa() {
  std::uint8_t isa = g_active.load(std::memory_order_relaxed);
  if (isa < kNumIsa) return static_cast<Isa>(isa);
  // Two first readers derive the same value (env_default() is pure given
  // a fixed environment); an override stored meanwhile wins.
  const auto derived = static_cast<std::uint8_t>(env_default());
  if (g_active.compare_exchange_strong(isa, derived,
                                       std::memory_order_relaxed)) {
    isa = derived;
  }
  return static_cast<Isa>(isa);
}

void set_isa_override(Isa isa) {
  g_active.store(static_cast<std::uint8_t>(resolve_isa(isa)),
                 std::memory_order_relaxed);
}

void clear_isa_override() {
  g_active.store(static_cast<std::uint8_t>(kNumIsa),
                 std::memory_order_relaxed);
}

}  // namespace ppgnn
