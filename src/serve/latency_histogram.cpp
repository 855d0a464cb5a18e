#include "serve/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ppgnn::serve {

namespace {

constexpr unsigned kSubBits = 7;  // 128 bins per octave
constexpr std::size_t kSub = std::size_t{1} << kSubBits;
constexpr unsigned kTopBits = 27;  // range [0, 2^27) us
// [0, 2 * kSub) at 1 us, then kSub bins for each octave up to 2^kTopBits.
constexpr std::size_t kBins = 2 * kSub + (kTopBits - kSubBits - 1) * kSub;

std::size_t bin_of(double us) {
  if (!(us >= 1.0)) return 0;  // sub-microsecond, negative or NaN
  if (us >= static_cast<double>(std::uint64_t{1} << kTopBits)) {
    return kBins - 1;
  }
  const auto v = static_cast<std::uint64_t>(us);
  if (v < 2 * kSub) return static_cast<std::size_t>(v);
  // v in [2^e, 2^(e+1)) with e >= 8: bin width 2^(e-7); v >> shift is the
  // bin's offset in [kSub, 2 * kSub) within its octave.
  const auto shift =
      static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
  return shift * kSub + static_cast<std::size_t>(v >> shift);
}

double lower_edge(std::size_t bin) {
  if (bin < 2 * kSub) return static_cast<double>(bin);
  const std::size_t shift = bin / kSub - 1;
  return static_cast<double>(std::uint64_t{bin - shift * kSub} << shift);
}

}  // namespace

void LatencyHistogram::record(double us) {
  if (bins_.empty()) bins_.assign(kBins, 0);
  const std::size_t b = bin_of(us);
  ++bins_[b];
  lo_ = std::min(lo_, b);
  hi_ = std::max(hi_, b);
  ++count_;
  sum_ += us;
  max_ = std::max(max_, us);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (bins_.empty()) bins_.assign(kBins, 0);
  for (std::size_t b = other.lo_; b <= other.hi_; ++b) {
    bins_[b] += other.bins_[b];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::clear() {
  if (count_ == 0) return;
  std::fill(bins_.begin() + static_cast<std::ptrdiff_t>(lo_),
            bins_.begin() + static_cast<std::ptrdiff_t>(hi_) + 1, 0);
  lo_ = SIZE_MAX;
  hi_ = 0;
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count_));
  const std::uint64_t want =
      rank < 1 ? 1
               : std::min(count_, static_cast<std::uint64_t>(rank));
  std::uint64_t seen = 0;
  std::size_t b = lo_;
  for (; b < hi_; ++b) {
    seen += bins_[b];
    if (seen >= want) break;
  }
  return lower_edge(b);
}

}  // namespace ppgnn::serve
