// isa_probe_cli — report the INT8 GEMM, fp32 GEMM and SpMM kernel ladders
// on this host.
//
// Prints one row per ladder arm: whether the binary carries the arm
// (compiled), whether this CPU can run it (supported), and which arm the
// runtime dispatch would pick right now (active — honours PPGNN_ISA);
// then the fp32 GEMM and SpMM arms that active rung dispatches to.
//
//   --require ARM   exit 0 if ARM is supported on this host, 3 if not.
//                   CI matrix legs use this to skip a forced-arm leg on
//                   runners whose CPU lacks the instructions instead of
//                   failing it (see ci.sh).
#include <cstdio>
#include <cstring>

#include "tensor/cpu_features.h"
#include "tensor/ops.h"

using namespace ppgnn;

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--require") == 0) {
    Isa arm;
    if (!parse_isa(argv[2], &arm)) {
      std::fprintf(stderr, "unknown ISA arm '%s' (scalar|sse2|avx2|avx512vnni)\n",
                   argv[2]);
      return 2;
    }
    if (!isa_supported(arm)) {
      std::printf("%s: not supported on this host\n", isa_name(arm));
      return 3;
    }
    std::printf("%s: supported\n", isa_name(arm));
    return 0;
  }
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--require ARM]\n", argv[0]);
    return 2;
  }

  const Isa active = active_isa();
  std::printf("INT8 GEMM kernel ladder (PPGNN_ISA forces an arm):\n");
  std::printf("  %-12s %-9s %-10s %s\n", "arm", "compiled", "supported",
              "active");
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa arm = static_cast<Isa>(i);
    std::printf("  %-12s %-9s %-10s %s\n", isa_name(arm),
                isa_compiled(arm) ? "yes" : "no",
                isa_supported(arm) ? "yes" : "no",
                arm == active ? "<- dispatch" : "");
  }
  std::printf("best supported: %s\n", isa_name(best_supported_isa()));
  std::printf("fp32 GEMM arm (avx512 on avx512vnni, avx2 on avx2, else "
              "scalar): %s\n",
              gemm_f32_arm());
  std::printf("SpMM arm (the fp32 GEMM's table): %s\n", gemm_f32_arm());
  return 0;
}
