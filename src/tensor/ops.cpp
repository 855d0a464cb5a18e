#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "tensor/cpu_features.h"
#include "tensor/gemm_kernels.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace ppgnn {

namespace {

void check_2d(const Tensor& t, const char* what) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string(what) + ": expected 2-D, got " +
                                t.shape_str());
  }
}

// Serial inner GEMM over a row range of C, with A and B in "logical"
// (already transposition-resolved) index order via strides.
struct MatView {
  const float* p;
  std::size_t r, c;      // logical rows/cols
  std::size_t rs, cs;    // strides for logical (row, col) step
  float at(std::size_t i, std::size_t j) const { return p[i * rs + j * cs]; }
};

MatView view(const Tensor& t, bool trans) {
  check_2d(t, "gemm");
  if (!trans) return {t.data(), t.rows(), t.cols(), t.cols(), 1};
  return {t.data(), t.cols(), t.rows(), 1, t.cols()};
}

// Scalar oracle: rows [i0, i1) of C.  Every wide arm repeats, per output,
// exactly the arithmetic of these loops (tensor/gemm_kernels.h).
void gemm_rows_scalar(const MatView& A, bool trans_a, const MatView& B,
                      bool trans_b, float* C, float alpha, float beta,
                      std::size_t i0, std::size_t i1) {
  const std::size_t m = A.r, k = A.c, n = B.c;
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = C + i * n;
    if (beta == 0.f) {
      std::fill(crow, crow + n, 0.f);
    } else if (beta != 1.f) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    if (!trans_a && !trans_b) {
      const float* arow = A.p + i * k;
      for (std::size_t l = 0; l < k; ++l) {
        const float av = alpha * arow[l];
        if (av == 0.f) continue;
        const float* brow = B.p + l * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    } else if (trans_a && !trans_b) {
      for (std::size_t l = 0; l < k; ++l) {
        const float av = alpha * A.p[l * m + i];  // A logical (i,l) = phys (l,i)
        if (av == 0.f) continue;
        const float* brow = B.p + l * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    } else {
      // B transposed: dot products over contiguous B rows.
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.f;
        if (!trans_a) {
          const float* arow = A.p + i * k;
          const float* brow = B.p + j * k;  // B logical (l,j) = phys (j,l)
          for (std::size_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
        } else {
          for (std::size_t l = 0; l < k; ++l) acc += A.at(i, l) * B.at(l, j);
        }
        crow[j] += alpha * acc;
      }
    }
  }
}

// Rows are handed out in blocks of the wide arms' register tile height.
constexpr std::size_t kRowBlock = 4;
// Multiply-adds below which a wide arm stays on the calling thread.  On
// a 4-vCPU Sapphire Rapids VM a pooled AVX-512 GEMM of 1M-17M
// multiply-adds ran at best 0.4-0.7x of its serial time, and no faster
// when serial work came between the calls (the woken workers ran on the
// caller's vCPU).  While other guests loaded the host, its p90 was 3-16x
// the serial p90, which barely moved: every fork-join waits for the
// slowest worker's vCPU.  SGC's forward and dW (4M) therefore stay
// serial.  The scalar oracle splits across the pool from two row blocks
// up.
constexpr std::size_t kParallelFloor = std::size_t{1} << 23;

}  // namespace

const char* gemm_f32_arm() {
  const detail::F32Arm* arm = detail::wide_arm(active_isa());
  return arm ? arm->name : "scalar";
}

void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha, float beta) {
  const MatView A = view(a, trans_a);
  const MatView B = view(b, trans_b);
  check_2d(c, "gemm (C)");
  const std::size_t m = A.r, k = A.c, n = B.c;
  if (B.r != k || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: incompatible shapes " + a.shape_str() +
                                (trans_a ? "^T" : "") + " @ " + b.shape_str() +
                                (trans_b ? "^T" : "") + " -> " + c.shape_str());
  }
  float* C = c.data();

  std::function<void(std::size_t, std::size_t)> rows;
  std::vector<float> bt;  // B^T row-major for the transposed-B arms
  const detail::F32Arm* arm = detail::wide_arm(active_isa());
  detail::GemmF32Args g{A.p, A.rs, A.cs, B.p, C, m, k, n, alpha, beta};
  if (arm == nullptr) {
    rows = [&](std::size_t i0, std::size_t i1) {
      gemm_rows_scalar(A, trans_a, B, trans_b, C, alpha, beta, i0, i1);
    };
  } else if (trans_b) {
    bt.resize(k * n);
    for (std::size_t l = 0; l < k; ++l) {
      for (std::size_t j = 0; j < n; ++j) bt[l * n + j] = B.at(l, j);
    }
    g.b = bt.data();
    rows = [&](std::size_t i0, std::size_t i1) { arm->dot(g, i0, i1); };
  } else {
    rows = [&](std::size_t i0, std::size_t i1) { arm->update(g, i0, i1); };
  }
  const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  const auto run = [&](std::size_t b0, std::size_t b1) {
    rows(b0 * kRowBlock, std::min(m, b1 * kRowBlock));
  };
  if (arm != nullptr && m * n * k < kParallelFloor) {
    run(0, blocks);
  } else {
    parallel_for(blocks, run, /*grain=*/2);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.rows(), b.cols()});
  gemm(a, false, b, false, c);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c({a.rows(), b.rows()});
  gemm(a, false, b, true, c);
  return c;
}

// ---------------------------------------------------------------------------

void add_inplace(Tensor& a, const Tensor& b) {
  a.check_same_shape(b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  parallel_for(a.size(), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) pa[i] += pb[i];
  }, 1u << 16);
}

void sub_inplace(Tensor& a, const Tensor& b) {
  a.check_same_shape(b, "sub_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.size(); i < n; ++i) pa[i] -= pb[i];
}

void mul_inplace(Tensor& a, const Tensor& b) {
  a.check_same_shape(b, "mul_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.size(); i < n; ++i) pa[i] *= pb[i];
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  y.check_same_shape(x, "axpy");
  const float* px = x.data();
  float* py = y.data();
  for (std::size_t i = 0, n = x.size(); i < n; ++i) py[i] += alpha * px[i];
}

void scale_inplace(Tensor& a, float alpha) {
  float* pa = a.data();
  for (std::size_t i = 0, n = a.size(); i < n; ++i) pa[i] *= alpha;
}

void add_row_vector(Tensor& a, const Tensor& bias) {
  check_2d(a, "add_row_vector");
  if (bias.size() != a.cols()) {
    throw std::invalid_argument("add_row_vector: bias size mismatch");
  }
  const float* pb = bias.data();
  for (std::size_t i = 0, r = a.rows(); i < r; ++i) {
    float* row = a.row(i);
    for (std::size_t j = 0, c = a.cols(); j < c; ++j) row[j] += pb[j];
  }
}

void sum_rows(const Tensor& a, Tensor& out) {
  check_2d(a, "sum_rows");
  if (out.size() != a.cols()) {
    throw std::invalid_argument("sum_rows: output size mismatch");
  }
  out.zero();
  float* po = out.data();
  for (std::size_t i = 0, r = a.rows(); i < r; ++i) {
    const float* row = a.row(i);
    for (std::size_t j = 0, c = a.cols(); j < c; ++j) po[j] += row[j];
  }
}

float sum_all(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (std::size_t i = 0, n = a.size(); i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

// ---------------------------------------------------------------------------

void relu(const Tensor& x, Tensor& out) {
  out.check_same_shape(x, "relu");
  const float* px = x.data();
  float* po = out.data();
  parallel_for(x.size(), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) po[i] = px[i] > 0.f ? px[i] : 0.f;
  }, 1u << 16);
}

void relu_backward(const Tensor& out, const Tensor& grad_out, Tensor& grad_in) {
  grad_in.check_same_shape(out, "relu_backward");
  const float* po = out.data();
  const float* pg = grad_out.data();
  float* pi = grad_in.data();
  for (std::size_t i = 0, n = out.size(); i < n; ++i) {
    pi[i] = po[i] > 0.f ? pg[i] : 0.f;
  }
}

void leaky_relu(const Tensor& x, Tensor& out, float slope) {
  out.check_same_shape(x, "leaky_relu");
  const float* px = x.data();
  float* po = out.data();
  for (std::size_t i = 0, n = x.size(); i < n; ++i) {
    po[i] = px[i] > 0.f ? px[i] : slope * px[i];
  }
}

void leaky_relu_backward(const Tensor& x, const Tensor& grad_out,
                         Tensor& grad_in, float slope) {
  grad_in.check_same_shape(x, "leaky_relu_backward");
  const float* px = x.data();
  const float* pg = grad_out.data();
  float* pi = grad_in.data();
  for (std::size_t i = 0, n = x.size(); i < n; ++i) {
    pi[i] = px[i] > 0.f ? pg[i] : slope * pg[i];
  }
}

namespace {
// tanh-approximation GELU and its derivative.
inline float gelu_scalar(float x) {
  const float c = 0.7978845608f;  // sqrt(2/pi)
  const float inner = c * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.f + std::tanh(inner));
}
inline float gelu_grad_scalar(float x) {
  const float c = 0.7978845608f;
  const float x3 = x * x * x;
  const float inner = c * (x + 0.044715f * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.f - t * t;
  return 0.5f * (1.f + t) + 0.5f * x * sech2 * c * (1.f + 3.f * 0.044715f * x * x);
}
}  // namespace

void gelu(const Tensor& x, Tensor& out) {
  out.check_same_shape(x, "gelu");
  const float* px = x.data();
  float* po = out.data();
  for (std::size_t i = 0, n = x.size(); i < n; ++i) po[i] = gelu_scalar(px[i]);
}

void gelu_backward(const Tensor& x, const Tensor& grad_out, Tensor& grad_in) {
  grad_in.check_same_shape(x, "gelu_backward");
  const float* px = x.data();
  const float* pg = grad_out.data();
  float* pi = grad_in.data();
  for (std::size_t i = 0, n = x.size(); i < n; ++i) {
    pi[i] = pg[i] * gelu_grad_scalar(px[i]);
  }
}

void softmax_rows(const Tensor& x, Tensor& out) {
  check_2d(x, "softmax_rows");
  out.check_same_shape(x, "softmax_rows");
  const std::size_t c = x.cols();
  parallel_for(x.rows(), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* xi = x.row(i);
      float* oi = out.row(i);
      float mx = xi[0];
      for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, xi[j]);
      float z = 0.f;
      for (std::size_t j = 0; j < c; ++j) {
        oi[j] = std::exp(xi[j] - mx);
        z += oi[j];
      }
      const float inv = 1.f / z;
      for (std::size_t j = 0; j < c; ++j) oi[j] *= inv;
    }
  }, 256);
}

void log_softmax_rows(const Tensor& x, Tensor& out) {
  check_2d(x, "log_softmax_rows");
  out.check_same_shape(x, "log_softmax_rows");
  const std::size_t c = x.cols();
  for (std::size_t i = 0, r = x.rows(); i < r; ++i) {
    const float* xi = x.row(i);
    float* oi = out.row(i);
    float mx = xi[0];
    for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, xi[j]);
    float z = 0.f;
    for (std::size_t j = 0; j < c; ++j) z += std::exp(xi[j] - mx);
    const float lz = std::log(z) + mx;
    for (std::size_t j = 0; j < c; ++j) oi[j] = xi[j] - lz;
  }
}

float cross_entropy(const Tensor& logits,
                    const std::vector<std::int32_t>& labels,
                    Tensor& grad_logits) {
  check_2d(logits, "cross_entropy");
  if (labels.size() != logits.rows()) {
    throw std::invalid_argument("cross_entropy: label count mismatch");
  }
  grad_logits.check_same_shape(logits, "cross_entropy (grad)");
  const std::size_t c = logits.cols();
  std::size_t valid = 0;
  for (const auto y : labels) {
    if (y >= 0) ++valid;
  }
  if (valid == 0) {
    grad_logits.zero();
    return 0.f;
  }
  const float inv_valid = 1.f / static_cast<float>(valid);
  double loss = 0.0;
  // softmax(logits) - onehot, scaled by 1/valid.
  for (std::size_t i = 0, r = logits.rows(); i < r; ++i) {
    const float* xi = logits.row(i);
    float* gi = grad_logits.row(i);
    if (labels[i] < 0) {
      std::fill(gi, gi + c, 0.f);
      continue;
    }
    float mx = xi[0];
    for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, xi[j]);
    float z = 0.f;
    for (std::size_t j = 0; j < c; ++j) {
      gi[j] = std::exp(xi[j] - mx);
      z += gi[j];
    }
    const float inv_z = 1.f / z;
    const auto y = static_cast<std::size_t>(labels[i]);
    loss -= (xi[y] - mx - std::log(z)) * inv_valid;
    for (std::size_t j = 0; j < c; ++j) gi[j] *= inv_z * inv_valid;
    gi[y] -= inv_valid;
  }
  return static_cast<float>(loss);
}

double accuracy(const Tensor& logits, const std::vector<std::int32_t>& labels) {
  check_2d(logits, "accuracy");
  std::size_t correct = 0, total = 0;
  for (std::size_t i = 0, r = logits.rows(); i < r; ++i) {
    if (labels[i] < 0) continue;
    ++total;
    if (argmax_row(logits, i) == static_cast<std::size_t>(labels[i])) ++correct;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

std::size_t argmax_row(const Tensor& x, std::size_t row) {
  const float* xi = x.row(row);
  std::size_t best = 0;
  for (std::size_t j = 1, c = x.cols(); j < c; ++j) {
    if (xi[j] > xi[best]) best = j;
  }
  return best;
}

// ---------------------------------------------------------------------------

void dropout(const Tensor& x, Tensor& out, std::vector<std::uint8_t>& mask,
             float p, Rng& rng) {
  out.check_same_shape(x, "dropout");
  mask.resize(x.size());
  if (p <= 0.f) {
    std::memcpy(out.data(), x.data(), x.bytes());
    std::fill(mask.begin(), mask.end(), 1);
    return;
  }
  const float keep = 1.f - p;
  const float scale = 1.f / keep;
  const float* px = x.data();
  float* po = out.data();
  for (std::size_t i = 0, n = x.size(); i < n; ++i) {
    const bool k = rng.uniform() < keep;
    mask[i] = k;
    po[i] = k ? px[i] * scale : 0.f;
  }
}

void dropout_backward(const Tensor& grad_out,
                      const std::vector<std::uint8_t>& mask, Tensor& grad_in,
                      float p) {
  grad_in.check_same_shape(grad_out, "dropout_backward");
  const float scale = p > 0.f ? 1.f / (1.f - p) : 1.f;
  const float* pg = grad_out.data();
  float* pi = grad_in.data();
  for (std::size_t i = 0, n = grad_out.size(); i < n; ++i) {
    pi[i] = mask[i] ? pg[i] * scale : 0.f;
  }
}

// ---------------------------------------------------------------------------

void gather_rows(const Tensor& src, const std::vector<std::int64_t>& idx,
                 Tensor& out) {
  const std::size_t rs = src.row_size();
  if (out.rows() != idx.size() || out.row_size() != rs) {
    throw std::invalid_argument("gather_rows: output shape mismatch");
  }
  const std::size_t n_src = src.rows();
  parallel_for(idx.size(), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const auto r = idx[i];
      if (r < 0 || static_cast<std::size_t>(r) >= n_src) {
        throw std::out_of_range("gather_rows: index out of range");
      }
      std::memcpy(out.row(i), src.row(static_cast<std::size_t>(r)),
                  rs * sizeof(float));
    }
  }, 512);
}

Tensor gather_rows(const Tensor& src, const std::vector<std::int64_t>& idx) {
  std::vector<std::size_t> shape = src.shape();
  shape[0] = idx.size();
  Tensor out(std::move(shape));
  gather_rows(src, idx, out);
  return out;
}

void scatter_add_rows(const Tensor& src, const std::vector<std::int64_t>& idx,
                      Tensor& dst) {
  const std::size_t rs = src.row_size();
  if (src.rows() != idx.size() || dst.row_size() != rs) {
    throw std::invalid_argument("scatter_add_rows: shape mismatch");
  }
  for (std::size_t i = 0, n = idx.size(); i < n; ++i) {
    const auto r = idx[i];
    if (r < 0 || static_cast<std::size_t>(r) >= dst.rows()) {
      throw std::out_of_range("scatter_add_rows: index out of range");
    }
    float* d = dst.row(static_cast<std::size_t>(r));
    const float* s = src.row(i);
    for (std::size_t j = 0; j < rs; ++j) d[j] += s[j];
  }
}

Tensor concat_cols(const std::vector<const Tensor*>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: no parts");
  const std::size_t rows = parts[0]->rows();
  std::size_t cols = 0;
  for (const Tensor* p : parts) {
    if (p->ndim() != 2 || p->rows() != rows) {
      throw std::invalid_argument("concat_cols: row count mismatch");
    }
    cols += p->cols();
  }
  Tensor out({rows, cols});
  for (std::size_t i = 0; i < rows; ++i) {
    float* orow = out.row(i);
    std::size_t off = 0;
    for (const Tensor* p : parts) {
      std::memcpy(orow + off, p->row(i), p->cols() * sizeof(float));
      off += p->cols();
    }
  }
  return out;
}

void split_cols(const Tensor& whole, std::vector<Tensor*>& parts) {
  const std::size_t rows = whole.rows();
  std::size_t cols = 0;
  for (Tensor* p : parts) cols += p->cols();
  if (cols != whole.cols()) {
    throw std::invalid_argument("split_cols: column count mismatch");
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const float* wrow = whole.row(i);
    std::size_t off = 0;
    for (Tensor* p : parts) {
      std::memcpy(p->row(i), wrow + off, p->cols() * sizeof(float));
      off += p->cols();
    }
  }
}

// ---------------------------------------------------------------------------

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.size(); i < n; ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  a.check_same_shape(b, "max_abs_diff");
  float m = 0.f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.size(); i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

}  // namespace ppgnn
