#include "loader/storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <system_error>

#include "tensor/parallel.h"
#include "tensor/quant.h"

namespace ppgnn::loader {

namespace {

std::string hop_path(const std::string& dir, std::size_t hop) {
  return dir + "/hop_" + std::to_string(hop) + ".bin";
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Reads exactly `count` bytes at `offset`, looping over short reads;
// every syscall adds one to `calls`.  EOF before `count` bytes throws.
void pread_exact(int fd, void* buf, std::size_t count, off_t offset,
                 std::atomic<std::uint64_t>& calls) {
  auto* p = static_cast<char*>(buf);
  while (count > 0) {
    calls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t r = ::pread(fd, p, count, offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread");
    }
    if (r == 0) throw std::runtime_error("pread: unexpected EOF");
    p += r;
    count -= static_cast<std::size_t>(r);
    offset += r;
  }
}

// preadv or pwritev.
using IovCall = ssize_t (*)(int, const iovec*, int, off_t);

// Moves exactly the bytes of iov[0, n) at `offset` with `call` (preadv or
// pwritev), looping over short transfers: entries are consumed (advanced
// past what each call moved), and each call takes at most IOV_MAX of them.
// Returns the number of syscalls made; a call that moves nothing (EOF on a
// read) throws.
std::uint64_t iov_exact(IovCall call, const char* what, int fd, iovec* iov,
                        std::size_t n, off_t offset) {
  std::uint64_t calls = 0;
  while (n > 0 && iov->iov_len == 0) {
    ++iov;
    --n;
  }
  while (n > 0) {
    ++calls;
    const ssize_t r =
        call(fd, iov, static_cast<int>(std::min<std::size_t>(n, IOV_MAX)),
             offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno(what);
    }
    if (r == 0) throw std::runtime_error(std::string(what) + ": unexpected EOF");
    offset += r;
    auto done = static_cast<std::size_t>(r);
    while (n > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --n;
    }
    if (done > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return calls;
}

// Calls fn(first, count) for each run of consecutive ids in `rows`, in
// order, or once for all of [0, n) when rows is null.
template <class Fn>
void for_each_run(const std::vector<std::int64_t>* rows, std::size_t n,
                  Fn fn) {
  if (rows == nullptr) {
    if (n > 0) fn(std::size_t{0}, n);
    return;
  }
  std::size_t i = 0;
  while (i < rows->size()) {
    std::size_t run = 1;
    while (i + run < rows->size() &&
           (*rows)[i + run] == (*rows)[i + run - 1] + 1) {
      ++run;
    }
    fn(static_cast<std::size_t>((*rows)[i]), run);
    i += run;
  }
}

// Writes the selected rows of `src` to fd from offset 0, fp32 as stored:
// one iovec per run of consecutive rows, pwritev'd IOV_MAX at a time.
void write_rows_fp32(int fd, const Tensor& src,
                     const std::vector<std::int64_t>* rows) {
  const std::size_t rec = src.cols() * sizeof(float);
  std::vector<iovec> iov;
  iov.reserve(IOV_MAX);
  off_t offset = 0;
  std::size_t pending = 0;
  const auto flush = [&] {
    iov_exact(::pwritev, "pwritev", fd, iov.data(), iov.size(), offset);
    offset += static_cast<off_t>(pending);
    pending = 0;
    iov.clear();
  };
  for_each_run(rows, src.rows(), [&](std::size_t first, std::size_t count) {
    iov.push_back({const_cast<float*>(src.row(first)), count * rec});
    pending += count * rec;
    if (iov.size() == static_cast<std::size_t>(IOV_MAX)) flush();
  });
  if (!iov.empty()) flush();
}

// As write_rows_fp32 for the int8 codec: rows are quantized into a buffer
// of at most FeatureFileStore::kEncodeBufferBytes (one record minimum),
// which is written each time it fills.
void write_rows_int8(int fd, const Tensor& src,
                     const std::vector<std::int64_t>* rows) {
  const std::size_t dim = src.cols();
  const std::size_t rec = sizeof(float) + dim;
  const std::size_t total = rows != nullptr ? rows->size() : src.rows();
  const std::size_t cap = std::min(
      total,
      std::max<std::size_t>(1, FeatureFileStore::kEncodeBufferBytes / rec));
  std::vector<char> buf(cap * rec);
  off_t offset = 0;
  std::size_t filled = 0;
  const auto flush = [&] {
    iovec v{buf.data(), filled * rec};
    iov_exact(::pwritev, "pwritev", fd, &v, 1, offset);
    offset += static_cast<off_t>(filled * rec);
    filled = 0;
  };
  for_each_run(rows, src.rows(), [&](std::size_t first, std::size_t count) {
    for (std::size_t r = first; r < first + count; ++r) {
      // Row record: [fp32 scale][dim int8 codes].
      char* out = buf.data() + filled * rec;
      float scale = 0.f;
      quantize_row_s8(src.row(r), dim,
                      reinterpret_cast<std::int8_t*>(out + sizeof(float)),
                      &scale);
      std::memcpy(out, &scale, sizeof(float));
      if (++filled == cap) flush();
    }
  });
  if (filled > 0) flush();
}

// Writes one hop file, closing it on success and on failure.
void write_hop(const std::string& path, const Tensor& src, RowCodec codec,
               const std::vector<std::int64_t>* rows) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw_errno("open for write: " + path);
  try {
    if (codec == RowCodec::kFp32) {
      write_rows_fp32(fd, src, rows);
    } else {
      write_rows_int8(fd, src, rows);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

// fn(h0, h1) over the hop files [0, hops): split across io_pool() from
// two hops up, one contiguous range of hops per part.
void for_hop_ranges(std::size_t hops,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (hops < 2) {
    if (hops > 0) fn(0, hops);
    return;
  }
  io_pool().parallel_for(hops, fn);
}

}  // namespace

const char* codec_name(RowCodec codec) {
  return codec == RowCodec::kInt8 ? "int8" : "fp32";
}

FeatureFileStore FeatureFileStore::create(
    const std::string& dir, const std::vector<Tensor>& hop_features,
    RowCodec codec, const std::vector<std::int64_t>* rows) {
  if (hop_features.empty()) {
    throw std::invalid_argument("FeatureFileStore: no hop features");
  }
  const std::size_t n = hop_features[0].rows();
  const std::size_t dim = hop_features[0].cols();
  for (const auto& t : hop_features) {
    if (t.rows() != n || t.cols() != dim) {
      throw std::invalid_argument("FeatureFileStore: hop shape mismatch");
    }
  }
  if (rows != nullptr) {
    for (const auto r : *rows) {
      if (r < 0 || static_cast<std::size_t>(r) >= n) {
        throw std::out_of_range("FeatureFileStore::create: row " +
                                std::to_string(r) + " out of range");
      }
    }
  }
  ::mkdir(dir.c_str(), 0755);  // ok if it already exists
  // One hop file per stream, each part writing its own range of hops.
  for_hop_ranges(hop_features.size(), [&](std::size_t h0, std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      write_hop(hop_path(dir, h), hop_features[h], codec, rows);
    }
  });
  return open(dir, rows != nullptr ? rows->size() : n, hop_features.size(),
              dim, codec);
}

FeatureFileStore FeatureFileStore::open(const std::string& dir,
                                        std::size_t num_rows,
                                        std::size_t num_hops,
                                        std::size_t dim, RowCodec codec) {
  FeatureFileStore s;
  s.dir_ = dir;
  s.rows_ = num_rows;
  s.hops_ = num_hops;
  s.dim_ = dim;
  s.codec_ = codec;
  s.fds_.reserve(num_hops);
  // Record sizes differ per codec (4*dim vs 4+dim bytes), so the file
  // length pins down which codec wrote the file — a mismatched open
  // (e.g. an int8 store opened as fp32) fails loudly here instead of
  // silently decoding garbage features.
  const off_t want_bytes =
      static_cast<off_t>(num_rows * s.hop_row_bytes());
  for (std::size_t h = 0; h < num_hops; ++h) {
    const int fd = ::open(hop_path(dir, h).c_str(), O_RDONLY);
    if (fd < 0) throw_errno("open for read: " + hop_path(dir, h));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("fstat: " + hop_path(dir, h));
    }
    if (st.st_size != want_bytes) {
      ::close(fd);
      throw std::invalid_argument(
          "FeatureFileStore::open: " + hop_path(dir, h) + " holds " +
          std::to_string(st.st_size) + " bytes but rows*dim with the " +
          std::string(codec_name(codec)) + " codec needs " +
          std::to_string(want_bytes) +
          " (codec/shape mismatch with how the store was created?)");
    }
    s.fds_.push_back(fd);
  }
  return s;
}

FeatureFileStore::FeatureFileStore(FeatureFileStore&& other) noexcept {
  *this = std::move(other);
}

FeatureFileStore& FeatureFileStore::operator=(
    FeatureFileStore&& other) noexcept {
  if (this != &other) {
    for (const int fd : fds_) ::close(fd);
    dir_ = std::move(other.dir_);
    rows_ = other.rows_;
    hops_ = other.hops_;
    dim_ = other.dim_;
    codec_ = other.codec_;
    fds_ = std::move(other.fds_);
    other.fds_.clear();
    preads_.store(other.preads_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  }
  return *this;
}

FeatureFileStore::~FeatureFileStore() {
  for (const int fd : fds_) ::close(fd);
}

void FeatureFileStore::read_hop_run(std::size_t h, std::size_t row0,
                                    std::size_t count, float* dst,
                                    std::size_t stride) const {
  const std::size_t rec = hop_row_bytes();
  const auto offset = static_cast<off_t>(row0 * rec);
  if (codec_ == RowCodec::kFp32) {
    std::vector<iovec> iov(count);
    for (std::size_t i = 0; i < count; ++i) iov[i] = {dst + i * stride, rec};
    preads_.fetch_add(
        iov_exact(::preadv, "preadv", fds_[h], iov.data(), count, offset),
        std::memory_order_relaxed);
    return;
  }
  std::vector<char> buf(count * rec);
  pread_exact(fds_[h], buf.data(), buf.size(), offset, preads_);
  for (std::size_t i = 0; i < count; ++i) {
    const char* in = buf.data() + i * rec;
    float scale = 0.f;
    std::memcpy(&scale, in, sizeof(float));
    dequantize_row_s8(reinterpret_cast<const std::int8_t*>(in + sizeof(float)),
                      dim_, scale, dst + i * stride);
  }
}

void FeatureFileStore::read_chunk(std::size_t row0, std::size_t count,
                                  Tensor& out) const {
  if (row0 + count > rows_) {
    throw std::out_of_range("read_chunk: range out of bounds");
  }
  if (out.rows() != count || out.cols() != hops_ * dim_) {
    throw std::invalid_argument("read_chunk: bad output shape");
  }
  read_chunk(row0, count, out.data());
}

void FeatureFileStore::read_chunk(std::size_t row0, std::size_t count,
                                  float* out) const {
  if (row0 + count > rows_) {
    throw std::out_of_range("read_chunk: range out of bounds");
  }
  // One run per hop file, each row's hop read straight into its slot of
  // the per-row hop-major layout; the parts read disjoint hop ranges, so
  // each fills its own columns of the rows.
  for_hop_ranges(hops_, [&](std::size_t h0, std::size_t h1) {
    for (std::size_t h = h0; h < h1; ++h) {
      read_hop_run(h, row0, count, out + h * dim_, hops_ * dim_);
    }
  });
}

void FeatureFileStore::read_rows_encoded(
    const std::vector<std::int64_t>& rows, std::uint8_t* out) const {
  for (const auto r : rows) {
    if (r < 0 || static_cast<std::size_t>(r) >= rows_) {
      throw std::out_of_range("read_rows: row out of bounds");
    }
  }
  const std::size_t rec = hop_row_bytes();
  // Sort output positions by row id so duplicates and adjacent ids form
  // runs; each run costs one pread per hop instead of one per occurrence.
  // Serving batches are heavy-tailed (hot rows repeat within a batch), so
  // the saving is structural, not incidental.
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rows[a] < rows[b]; });
  std::vector<std::uint8_t> buf;
  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t run_first = static_cast<std::size_t>(rows[order[i]]);
    std::size_t j = i;
    std::size_t run_last = run_first;
    // Extend the run while the next sorted id is the same row (duplicate)
    // or the immediately following one (adjacent on disk).
    while (j + 1 < order.size()) {
      const auto next = static_cast<std::size_t>(rows[order[j + 1]]);
      if (next > run_last + 1) break;
      run_last = next;
      ++j;
    }
    const std::size_t count = run_last - run_first + 1;
    buf.resize(count * rec);
    for (std::size_t h = 0; h < hops_; ++h) {
      pread_exact(fds_[h], buf.data(), count * rec,
                  static_cast<off_t>(run_first * rec), preads_);
      for (std::size_t t = i; t <= j; ++t) {
        const auto r = static_cast<std::size_t>(rows[order[t]]);
        std::memcpy(out + order[t] * row_bytes() + h * rec,
                    buf.data() + (r - run_first) * rec, rec);
      }
    }
    i = j + 1;
  }
}

void FeatureFileStore::decode_row(const std::uint8_t* enc, float* out) const {
  const std::size_t rec = hop_row_bytes();
  for (std::size_t h = 0; h < hops_; ++h) {
    const std::uint8_t* in = enc + h * rec;
    if (codec_ == RowCodec::kFp32) {
      std::memcpy(out + h * dim_, in, rec);
    } else {
      float scale = 0.f;
      std::memcpy(&scale, in, sizeof(float));
      dequantize_row_s8(
          reinterpret_cast<const std::int8_t*>(in + sizeof(float)), dim_,
          scale, out + h * dim_);
    }
  }
}

void FeatureFileStore::read_rows(const std::vector<std::int64_t>& rows,
                                 Tensor& out) const {
  if (out.rows() != rows.size() || out.cols() != hops_ * dim_) {
    throw std::invalid_argument("read_rows: bad output shape");
  }
  std::vector<std::uint8_t> enc(rows.size() * row_bytes());
  read_rows_encoded(rows, enc.data());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    decode_row(enc.data() + i * row_bytes(), out.row(i));
  }
}

}  // namespace ppgnn::loader
