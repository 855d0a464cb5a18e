// File-backed preprocessed-feature store (the GDS analogue, Section 4.3).
//
// Preprocessed hop features are written to one binary file per hop — the
// paper splits hops into separate files to expose parallel storage streams.
// create() writes each hop straight from its source tensor, either every
// row or a selection (the trainer's training rows): fp32 runs of selected
// rows go out by pwritev with no copy, int8 rows through a bounded encode
// buffer.  An open store keeps only its file descriptors resident; the
// features live on disk and in the caller's batches.
//
// create() and read_chunk() run on io_pool() (tensor/parallel.h), the
// storage streams' pool, never on the compute pool a training step forks
// on: from two hops up they split the hop files into one range per pool
// thread, so each file is its own stream.  The pool runs a call serially
// on its caller when another read holds it or from inside a pool task; an
// error in any part reaches the caller after every part is done.
//
// Reading supports two access patterns whose performance gap is the whole
// point of chunk reshuffling on storage:
//   - read_chunk: contiguous row ranges, one preadv per hop file (per
//     IOV_MAX rows) that scatters each stored row straight into its slot
//     of the caller's hop-major batch rows — no staging buffer, no copy
//     (the int8 codec reads into a buffer and decodes into the rows);
//   - read_rows: row-granular random access.  Row ids are sorted per call
//     and adjacent/duplicate runs coalesce into one pread per run, so a
//     hub-heavy serving micro-batch costs far fewer syscalls than one
//     pread per row per hop (preads() counts the actual calls issued).
//
// Two row codecs share the layout:
//   - kFp32: dim floats per row per hop (exact);
//   - kInt8: one fp32 scale header then dim int8s per row per hop
//     (per-row symmetric quantization, tensor/quant.h) — ~4x smaller rows,
//     which is 4x effective RowCache capacity per serving replica.
// Reads always decode to fp32; the codec is a storage property, not an API
// one.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ppgnn::loader {

// On-disk row encoding of a FeatureFileStore.
enum class RowCodec { kFp32, kInt8 };

const char* codec_name(RowCodec codec);

class FeatureFileStore {
 public:
  // Writes hop_features[h] ([n, dim] each, identical shapes) to
  // dir/hop_<h>.bin and returns an open store.  Overwrites existing files.
  // kInt8 quantizes each row symmetrically (scale header + int8 payload).
  // With `rows`, stored row i is source row (*rows)[i] — the same files as
  // create() over gather_rows(hop, *rows), without the gathered copy; an
  // id outside [0, n) throws std::out_of_range before any file is opened.
  static FeatureFileStore create(const std::string& dir,
                                 const std::vector<Tensor>& hop_features,
                                 RowCodec codec = RowCodec::kFp32,
                                 const std::vector<std::int64_t>* rows =
                                     nullptr);
  // Bytes of int8 records create() encodes before each write (at least
  // one record).
  static constexpr std::size_t kEncodeBufferBytes = std::size_t{256} << 10;
  // Opens existing files written by create() with the same codec.
  static FeatureFileStore open(const std::string& dir, std::size_t num_rows,
                               std::size_t num_hops, std::size_t dim,
                               RowCodec codec = RowCodec::kFp32);

  FeatureFileStore(FeatureFileStore&&) noexcept;
  FeatureFileStore& operator=(FeatureFileStore&&) noexcept;
  ~FeatureFileStore();

  std::size_t num_rows() const { return rows_; }
  std::size_t num_hops() const { return hops_; }
  std::size_t hop_dim() const { return dim_; }
  RowCodec codec() const { return codec_; }
  // Stored bytes of one row within one hop file (codec-dependent).
  std::size_t hop_row_bytes() const {
    return codec_ == RowCodec::kInt8 ? sizeof(float) + dim_
                                     : dim_ * sizeof(float);
  }
  // Stored bytes of one full expanded row across all hops.
  std::size_t row_bytes() const { return hops_ * hop_row_bytes(); }
  std::size_t total_bytes() const { return rows_ * row_bytes(); }

  // out: [count, hops*dim]; reads rows [row0, row0+count) of every hop file
  // and lays them out hop-major within each output row (hop 0 first) —
  // matching the in-memory expanded layout of core::Preprocessed.
  void read_chunk(std::size_t row0, std::size_t count, Tensor& out) const;
  // As above, into `count` consecutive rows of hops*dim floats at `out`
  // (e.g. a run of rows inside a larger batch).
  void read_chunk(std::size_t row0, std::size_t count, float* out) const;

  // Random row-granular access: out[i] = concatenated hops of rows[i].
  // Sorts the ids and issues one pread per run of adjacent/duplicate rows
  // per hop; results are independent of the coalescing (bit-identical to
  // per-row reads).  Thread-safe (pread, no shared cursor).
  void read_rows(const std::vector<std::int64_t>& rows, Tensor& out) const;

  // As read_rows, but returns the STORED bytes: out[i] is the hop-major
  // concatenation of row rows[i]'s per-hop records, row_bytes() each.
  // This is what a payload cache should keep resident — for kInt8 the
  // encoded row is ~4x smaller than its fp32 expansion, and decode_row of
  // the same bytes yields the same floats whether they came from disk or
  // from cache (caching can never change answers).
  void read_rows_encoded(const std::vector<std::int64_t>& rows,
                         std::uint8_t* out) const;
  // Decodes one encoded row (row_bytes() bytes) into hops*dim floats,
  // exactly as read_rows would.
  void decode_row(const std::uint8_t* enc, float* out) const;

  // Cumulative pread/preadv syscalls issued by this store (all threads).
  // The serving bench reports the delta per micro-batch to show what run
  // coalescing saves over the historical one-pread-per-row-per-hop.
  std::uint64_t preads() const {
    return preads_.load(std::memory_order_relaxed);
  }

 private:
  FeatureFileStore() = default;
  // Reads `count` stored rows starting at `row0` from hop `h` as fp32 into
  // dst, dst + stride, ...: one preadv per IOV_MAX rows for kFp32, one
  // pread plus decode for kInt8 (short reads loop; EOF throws).
  void read_hop_run(std::size_t h, std::size_t row0, std::size_t count,
                    float* dst, std::size_t stride) const;

  std::string dir_;
  std::size_t rows_ = 0, hops_ = 0, dim_ = 0;
  RowCodec codec_ = RowCodec::kFp32;
  std::vector<int> fds_;  // one per hop file
  mutable std::atomic<std::uint64_t> preads_{0};
};

}  // namespace ppgnn::loader
