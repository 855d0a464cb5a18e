#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/quant_kernels.h"

namespace ppgnn {

namespace detail {

// Scalar oracle (and every SIMD arm's tail handler): exact int32 dot over
// the int8 codes in ascending t, then the canonical epilogue sequence.
// Lives in this base-flags TU so a wider arm's TU (-mavx2/-mavx512*)
// cannot recontract the float math into FMAs — bit-identity depends on
// every arm running the same IEEE operation sequence.
void gemm_rows_scalar(const GemmRowArgs& a, std::size_t j0, std::size_t j1) {
  const QuantizedMatrix& w = *a.w;
  const std::size_t k = w.cols;
  for (std::size_t j = j0; j < j1; ++j) {
    std::int32_t acc = 0;
    const std::int8_t* wr = w.row(j);
    for (std::size_t t = 0; t < k; ++t) {
      acc += static_cast<std::int32_t>(a.xr[t]) *
             static_cast<std::int32_t>(wr[t]);
    }
    float y = w.scales[j] * (a.xs * static_cast<float>(acc) +
                             a.xoff * static_cast<float>(w.row_sums[j]));
    if (a.bias) y += a.bias[j];
    a.crow[j] = y;
  }
}

// pmaddwd over the pair-packed layout: one instruction retires two
// k-steps for four outputs, accumulating in int32 lanes.  The per-lane
// accumulation order (ascending kk) gives the same exact int32 sum as the
// scalar ascending-t loop — integer addition is associative — and the
// SIMD epilogue performs the identical per-lane IEEE sequence, so this
// arm is the bit-exact SSE2 oracle the wider arms are tested against.
void gemm_rows_sse2(const GemmRowArgs& a, std::size_t j0, std::size_t j1) {
#if defined(__SSE2__)
  const QuantizedMatrix& w = *a.w;
  const std::size_t k2 = (w.cols + 1) / 2;
  const __m128 xs4 = _mm_set1_ps(a.xs);
  const __m128 xo4 = _mm_set1_ps(a.xoff);
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    __m128i acc = _mm_setzero_si128();
    const std::int16_t* wp = w.packed.data() + j * 2;
    for (std::size_t kk = 0; kk < k2; ++kk) {
      const __m128i xb = _mm_set1_epi32(a.xw[kk]);
      const __m128i wv = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(wp + kk * w.rows * 2));
      acc = _mm_add_epi32(acc, _mm_madd_epi16(xb, wv));
    }
    const __m128 accf = _mm_cvtepi32_ps(acc);
    const __m128 rs4 = _mm_cvtepi32_ps(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(w.row_sums.data() + j)));
    const __m128 ws4 = _mm_loadu_ps(w.scales.data() + j);
    __m128 out = _mm_mul_ps(
        ws4, _mm_add_ps(_mm_mul_ps(xs4, accf), _mm_mul_ps(xo4, rs4)));
    if (a.bias) out = _mm_add_ps(out, _mm_loadu_ps(a.bias + j));
    _mm_storeu_ps(a.crow + j, out);
  }
  if (j < j1) gemm_rows_scalar(a, j, j1);
#else
  gemm_rows_scalar(a, j0, j1);
#endif
}

bool have_sse2_kernel() {
#if defined(__SSE2__)
  return true;
#else
  return false;
#endif
}

std::size_t packed_x_words(Isa arm, std::size_t k) {
  switch (arm) {
    case Isa::kSse2:
    case Isa::kAvx2:
      return (k + 1) / 2;
    case Isa::kAvx512Vnni:
      return (k + 3) / 4;
    case Isa::kScalar:
      break;
  }
  return 0;
}

void pack_x_row(Isa arm, const std::int8_t* xr, std::size_t k,
                std::int32_t* xw) {
  if (arm == Isa::kSse2 || arm == Isa::kAvx2) {
    // Two sign-extended int16 codes per word; the padding half of an odd
    // k is 0, which zeroes its pmaddwd product against any weight code.
    const std::size_t k2 = (k + 1) / 2;
    for (std::size_t kk = 0; kk < k2; ++kk) {
      const auto a = static_cast<std::int16_t>(xr[2 * kk]);
      const std::int16_t b = (2 * kk + 1 < k)
                                 ? static_cast<std::int16_t>(xr[2 * kk + 1])
                                 : std::int16_t{0};
      xw[kk] = static_cast<std::int32_t>(static_cast<std::uint16_t>(a)) |
               (static_cast<std::int32_t>(static_cast<std::uint16_t>(b))
                << 16);
    }
  } else if (arm == Isa::kAvx512Vnni) {
    // Four unsigned (code + 128) bytes per word for the u8 x s8
    // vpdpbusd; padding bytes pair against zero-padded weight quads, so
    // their value cannot matter — 128 (= code 0 biased) keeps them in the
    // same documented form as real codes.
    const std::size_t k4 = (k + 3) / 4;
    for (std::size_t kq = 0; kq < k4; ++kq) {
      std::uint32_t word = 0;
      for (std::size_t p = 0; p < 4; ++p) {
        const std::size_t t = 4 * kq + p;
        const std::uint32_t byte =
            t < k ? static_cast<std::uint8_t>(
                        static_cast<std::int32_t>(xr[t]) + 128)
                  : 128u;
        word |= byte << (8 * p);
      }
      xw[kq] = static_cast<std::int32_t>(word);
    }
  }
}

}  // namespace detail

namespace {

// Round-half-away-from-zero as trunc(v + sign(v)*0.5): branch-free and
// auto-vectorizable, unlike lrintf.  Symmetric codes, so the tie-breaking
// direction only matters for exact .5 boundaries; what matters here is
// that it is deterministic and the same everywhere.
inline int round_code(float v) {
  return static_cast<int>(v + std::copysign(0.5f, v));
}

using RowKernel = void (*)(const detail::GemmRowArgs&, std::size_t,
                           std::size_t);

// The kernel that reads w's packed layout, degraded to scalar when this
// host cannot execute the layout's arm (a matrix packed on or for a wider
// machine still answers bit-identically — the scalar arm reads the raw
// codes, which every matrix carries).
RowKernel kernel_for(const QuantizedMatrix& w, Isa* arm_out) {
  Isa arm = w.packed_for;
  if (!isa_supported(arm)) arm = Isa::kScalar;
  switch (arm) {
    case Isa::kSse2:
      if (!w.packed.empty()) {
        *arm_out = arm;
        return &detail::gemm_rows_sse2;
      }
      break;
    case Isa::kAvx2:
      if (!w.packed.empty()) {
        *arm_out = arm;
        return &detail::gemm_rows_avx2;
      }
      break;
    case Isa::kAvx512Vnni:
      if (!w.packed_quad.empty()) {
        *arm_out = arm;
        return &detail::gemm_rows_avx512vnni;
      }
      break;
    case Isa::kScalar:
      break;
  }
  *arm_out = Isa::kScalar;
  return &detail::gemm_rows_scalar;
}

// Shared GEMM driver for both activation encodings.  Accumulate in int32
// and dequantize once at the epilogue (both scales are constant over the
// k-sum by construction: per-sample x per-output-channel).
//
// Runs on the calling thread.  A serving GEMM (at most 256 rows, 96
// inputs and 32 outputs here) is under 10^6 multiply-adds, less work than
// waking and joining pool workers costs.  Each row's activation words are
// packed once, then every row sweeps one 64-output weight block before
// the next (64 outputs x k codes of pair-pack is ~12 KB at the serving
// shape, so the block stays cache-resident while the rows stream past).
// The blocking cannot change a byte: each output's accumulation order is
// fixed inside the row kernels.
template <typename ScaleFn, typename OffFn>
void gemm_s8_impl(std::size_t m, std::size_t k, std::size_t n,
                  const std::int8_t* xdata, ScaleFn xscale, OffFn xoff,
                  const QuantizedMatrix& w, Tensor& c, const Tensor* bias) {
  if (c.ndim() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  }
  if (m == 0 || n == 0) return;

  Isa arm = Isa::kScalar;
  const RowKernel kernel = kernel_for(w, &arm);
  const std::size_t words = detail::packed_x_words(arm, k);
  std::vector<std::int32_t> xw(words * m);
  if (words > 0) {
    for (std::size_t i = 0; i < m; ++i) {
      detail::pack_x_row(arm, xdata + i * k, k, xw.data() + i * words);
    }
  }

  const std::size_t kJBlock = 64;
  detail::GemmRowArgs a;
  a.w = &w;
  a.bias = bias ? bias->data() : nullptr;
  for (std::size_t j0 = 0; j0 < n; j0 += kJBlock) {
    const std::size_t j1 = std::min(n, j0 + kJBlock);
    for (std::size_t i = 0; i < m; ++i) {
      a.xr = xdata + i * k;
      a.xw = words ? xw.data() + i * words : nullptr;
      a.xs = xscale(i);
      a.xoff = xoff(i);
      a.crow = c.row(i);
      kernel(a, j0, j1);
    }
  }
}

}  // namespace

void quantize_row_s8(const float* src, std::size_t n, std::int8_t* dst,
                     float* scale) {
  float amax = 0.f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(src[i]);
    if (a > amax) amax = a;
  }
  if (amax == 0.f) {
    std::memset(dst, 0, n);
    *scale = 0.f;
    return;
  }
  const float s = amax / 127.f;
  const float inv = 127.f / amax;
  for (std::size_t i = 0; i < n; ++i) {
    // The clamp guards the amax element itself, which can land on
    // ±127.0000001 after the multiply.
    int q = round_code(src[i] * inv);
    if (q > 127) q = 127;
    if (q < -127) q = -127;  // symmetric: -128 never used, so -q is exact
    dst[i] = static_cast<std::int8_t>(q);
  }
  *scale = s;
}

void dequantize_row_s8(const std::int8_t* src, std::size_t n, float scale,
                       float* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

QuantizedMatrix quantize_per_row(const Tensor& m) {
  return quantize_per_row(m, active_isa());
}

QuantizedMatrix quantize_per_row(const Tensor& m, Isa arm) {
  if (m.ndim() != 2) {
    throw std::invalid_argument("quantize_per_row: expected 2-D, got " +
                                m.shape_str());
  }
  QuantizedMatrix q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.data.resize(q.rows * q.cols);
  q.scales.resize(q.rows);
  q.row_sums.resize(q.rows);
  for (std::size_t i = 0; i < q.rows; ++i) {
    quantize_row_s8(m.row(i), q.cols, q.row(i), &q.scales[i]);
    std::int32_t sum = 0;
    const std::int8_t* codes = q.row(i);
    for (std::size_t t = 0; t < q.cols; ++t) sum += codes[t];
    q.row_sums[i] = sum;
  }
  // Build ONLY the layout the dispatched arm reads (quant.h): the scalar
  // arm reads the raw codes and needs none.  Zero-padding the k remainder
  // keeps every packed dot exact.
  q.packed_for = arm;
  if (arm == Isa::kSse2 || arm == Isa::kAvx2) {
    const std::size_t k2 = (q.cols + 1) / 2;
    q.packed.assign(k2 * q.rows * 2, 0);
    for (std::size_t j = 0; j < q.rows; ++j) {
      const std::int8_t* codes = q.row(j);
      for (std::size_t t = 0; t < q.cols; ++t) {
        q.packed[((t / 2) * q.rows + j) * 2 + (t & 1)] = codes[t];
      }
    }
  } else if (arm == Isa::kAvx512Vnni) {
    const std::size_t k4 = (q.cols + 3) / 4;
    q.packed_quad.assign(k4 * q.rows * 4, 0);
    for (std::size_t j = 0; j < q.rows; ++j) {
      const std::int8_t* codes = q.row(j);
      for (std::size_t t = 0; t < q.cols; ++t) {
        q.packed_quad[((t / 4) * q.rows + j) * 4 + (t & 3)] = codes[t];
      }
    }
  }
  return q;
}

Tensor dequantize(const QuantizedMatrix& q) {
  Tensor out({q.rows, q.cols});
  for (std::size_t i = 0; i < q.rows; ++i) {
    dequantize_row_s8(q.row(i), q.cols, q.scales[i], out.row(i));
  }
  return out;
}

QuantizedActs quantize_acts_per_row(const Tensor& m) {
  if (m.ndim() != 2) {
    throw std::invalid_argument("quantize_acts_per_row: expected 2-D, got " +
                                m.shape_str());
  }
  QuantizedActs q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.data.resize(q.rows * q.cols);
  q.scales.resize(q.rows);
  q.offsets.resize(q.rows);
  for (std::size_t i = 0; i < q.rows; ++i) {
    const float* src = m.row(i);
    float lo = src[0], hi = src[0];
    for (std::size_t t = 1; t < q.cols; ++t) {
      lo = std::min(lo, src[t]);
      hi = std::max(hi, src[t]);
    }
    const float mid = 0.5f * (lo + hi);
    const float half = 0.5f * (hi - lo);
    std::int8_t* dst = q.row(i);
    if (half == 0.f) {
      // Constant row: the offset carries it exactly.
      std::memset(dst, 0, q.cols);
      q.scales[i] = 0.f;
      q.offsets[i] = mid;
      continue;
    }
    const float s = half / 127.f;
    const float inv = 127.f / half;
    for (std::size_t t = 0; t < q.cols; ++t) {
      int code = round_code((src[t] - mid) * inv);
      if (code > 127) code = 127;
      if (code < -127) code = -127;
      dst[t] = static_cast<std::int8_t>(code);
    }
    q.scales[i] = s;
    q.offsets[i] = mid;
  }
  return q;
}

void gemm_s8_nt(const QuantizedMatrix& x, const QuantizedMatrix& w, Tensor& c,
                const Tensor* bias) {
  if (x.cols != w.cols) {
    throw std::invalid_argument("gemm_s8_nt: inner dimension mismatch");
  }
  if (bias && bias->size() != w.rows) {
    throw std::invalid_argument("gemm_s8_nt: bias length mismatch");
  }
  // Symmetric codes mean a zero offset.
  gemm_s8_impl(
      x.rows, x.cols, w.rows, x.data.data(),
      [&](std::size_t i) { return x.scales[i]; },
      [](std::size_t) { return 0.f; }, w, c, bias);
}

void gemm_s8_nt(const QuantizedActs& x, const QuantizedMatrix& w, Tensor& c,
                const Tensor* bias) {
  if (x.cols != w.cols) {
    throw std::invalid_argument("gemm_s8_nt: inner dimension mismatch");
  }
  if (bias && bias->size() != w.rows) {
    throw std::invalid_argument("gemm_s8_nt: bias length mismatch");
  }
  if (w.row_sums.size() != w.rows) {
    throw std::invalid_argument(
        "gemm_s8_nt: weight matrix lacks row sums (quantize_per_row it)");
  }
  // sum_k (xoff + q*xs) * (wq*ws) = ws*(xs*acc + xoff*sum_k(wq)): the
  // offset correction rides the precomputed weight-code row sums, so
  // asymmetric activations cost one extra FMA per output.
  gemm_s8_impl(
      x.rows, x.cols, w.rows, x.data.data(),
      [&](std::size_t i) { return x.scales[i]; },
      [&](std::size_t i) { return x.offsets[i]; }, w, c, bias);
}

Isa gemm_dispatch_arm(const QuantizedMatrix& w) {
  Isa arm = Isa::kScalar;
  kernel_for(w, &arm);
  return arm;
}

}  // namespace ppgnn
