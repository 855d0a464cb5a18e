// Fixed-size, mergeable latency histogram (HdrHistogram-style,
// http://hdrhistogram.org): ServerStats' one latency store.
//
// Values below 256 us land in 1 us bins; each power-of-two octave above is
// split into 128 equal bins, so no bin is wider than 1/128 (0.78%) of its
// values.  percentile() reports the lower edge of the bin holding the
// nearest-rank sample: within 1 us of exact below 256 us, within 0.78%
// above.  Count, sum and max are exact.  Values past 2^27 us (~134 s) land
// in the top bin.  The 2688 bins (21 KiB) are allocated on first use and
// kept by clear(); merge() adds the occupied bin range.  Not thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppgnn::serve {

class LatencyHistogram {
 public:
  void record(double us);
  // Adds `other`'s bins, count, sum and max into this one.
  void merge(const LatencyHistogram& other);
  // Empties the histogram; the bins stay allocated.
  void clear();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  // Nearest-rank percentile, p in [0, 100] (the rank rule of percentile()
  // in server_stats.h); 0 when empty.
  double percentile(double p) const;

 private:
  std::vector<std::uint64_t> bins_;  // empty until the first sample
  std::size_t lo_ = SIZE_MAX;        // occupied bins: [lo_, hi_]
  std::size_t hi_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

}  // namespace ppgnn::serve
