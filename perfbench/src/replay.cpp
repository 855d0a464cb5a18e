#include <algorithm>
#include <unordered_set>

#include "nn/linear.h"
#include "rpc/wire.h"
#include "serve/inference_session.h"
#include "tensor/quant.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppgnn;

// Calls fn() until `budget_s` has passed (and at least `min_reps` times);
// returns each call's duration in microseconds.
template <typename Fn>
std::vector<double> time_reps(Fn&& fn, double budget_s = 0.3,
                              std::size_t min_reps = 20) {
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(budget_s));
  while (us.size() < min_reps || Clock::now() < stop) {
    const auto t = Clock::now();
    fn();
    us.push_back(us_between(t, Clock::now()));
  }
  return us;
}

}  // namespace

void replay_nn(const MakeModel& make_shell, const std::string& fp32_checkpoint,
               const Tensor& batch, Record& rec) {
  auto fp32 = make_shell();
  serve::load_deployed_model(*fp32, fp32_checkpoint);
  const auto fwd = time_reps([&] { (void)fp32->infer(batch); });
  rec.metric("nn.forward_fp32_us", median(fwd), "us", fwd.size());

  auto q = make_shell();
  serve::load_deployed_model(*q, fp32_checkpoint);
  core::quantize_int8(*q);
  std::vector<nn::Linear*> linears;
  q->collect_linears(linears);
  // Inputs of each Linear's width at the batch's row count; values in
  // [0, 1) like the ReLU'd activations the hidden layers see.
  Rng rng(5);
  std::vector<Tensor> inputs;
  double ops = 0;
  for (nn::Linear* l : linears) {
    inputs.push_back(
        Tensor::uniform({batch.rows(), l->in_features()}, rng, 0.f, 1.f));
    ops += 2.0 * static_cast<double>(batch.rows() * l->in_features() *
                                     l->out_features());
  }
  const auto linear = time_reps([&] {
    for (std::size_t i = 0; i < linears.size(); ++i) {
      (void)linears[i]->forward(inputs[i], /*train=*/false);
    }
  });
  std::vector<QuantizedActs> acts(linears.size());
  const auto quantize = time_reps([&] {
    for (std::size_t i = 0; i < linears.size(); ++i) {
      acts[i] = quantize_acts_per_row(inputs[i]);
    }
  });
  Tensor out;
  const auto gemm = time_reps([&] {
    for (std::size_t i = 0; i < linears.size(); ++i) {
      const Tensor& bias = linears[i]->bias();
      gemm_s8_nt(acts[i], *linears[i]->quantized_weight(), out,
                 bias.empty() ? nullptr : &bias);
    }
  });
  rec.metric("nn.linear_int8_us", median(linear), "us", linear.size());
  rec.metric("tensor.quantize_acts_us", median(quantize), "us",
             quantize.size());
  rec.metric("tensor.gemm_s8_us", median(gemm), "us", gemm.size());
  rec.metric("tensor.gemm_s8_gops", ops / (median(gemm) * 1e3), "Gop/s",
             gemm.size());
  rec.info("replay_batch_rows", static_cast<double>(batch.rows()));
  if (!linears.empty()) {
    rec.info("replay_gemm_arm",
             isa_name(gemm_dispatch_arm(*linears.front()->quantized_weight())));
  }
}

void replay_gather(serve::FeatureSource& source, serve::CachedSource* cache,
                   const loader::FeatureFileStore* store,
                   const std::vector<std::int64_t>& stream,
                   std::size_t batch_rows, Record& rec) {
  std::size_t pos = 0;
  std::vector<std::int64_t> rows(batch_rows);
  const auto next_batch = [&] {
    for (auto& r : rows) {
      r = stream[pos];
      pos = (pos + 1) % stream.size();
    }
  };
  Tensor out;
  if (cache) {
    // Warm the cache to its steady hit rate first.
    const std::size_t warm_rows = std::min<std::size_t>(stream.size(), 200000);
    for (std::size_t n = 0; n < warm_rows; n += batch_rows) {
      next_batch();
      cache->gather(rows, out);
    }
  }
  const serve::FeatureCacheStats before =
      cache ? cache->stats() : serve::FeatureCacheStats{};
  std::vector<double> gather_us, read_us, decode_us;
  std::uint64_t gather_preads = 0;
  std::vector<std::int64_t> missed;
  std::vector<std::uint8_t> encoded;
  std::vector<float> decoded(source.row_dim());
  const auto stop = Clock::now() + std::chrono::milliseconds(500);
  while (gather_us.size() < 200 || Clock::now() < stop) {
    next_batch();
    missed.clear();
    if (cache) {
      std::unordered_set<std::int64_t> seen;
      for (const std::int64_t r : rows) {
        if (!cache->cache_policy().resident(r) && seen.insert(r).second) {
          missed.push_back(r);
        }
      }
    }
    const std::uint64_t p0 = store ? store->preads() : 0;
    const auto t = Clock::now();
    source.gather(rows, out);
    gather_us.push_back(us_between(t, Clock::now()));
    if (store) gather_preads += store->preads() - p0;
    if (!store || missed.empty()) continue;
    encoded.resize(missed.size() * store->row_bytes());
    const auto t1 = Clock::now();
    store->read_rows_encoded(missed, encoded.data());
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < missed.size(); ++i) {
      store->decode_row(encoded.data() + i * store->row_bytes(),
                        decoded.data());
    }
    const auto t3 = Clock::now();
    read_us.push_back(us_between(t1, t2));
    decode_us.push_back(us_between(t2, t3) / static_cast<double>(missed.size()));
  }
  rec.metric("feature.gather_us", median(gather_us), "us", gather_us.size());
  if (!cache) return;
  const serve::FeatureCacheStats after = cache->stats();
  const std::size_t accesses = after.accesses - before.accesses;
  const std::size_t rows_read = after.rows_read - before.rows_read;
  rec.metric("cache.hit_rate",
             accesses ? static_cast<double>(after.hits - before.hits) /
                            static_cast<double>(accesses)
                      : 0,
             "frac", accesses);
  rec.metric("storage.preads_per_row",
             rows_read ? static_cast<double>(gather_preads) /
                             static_cast<double>(rows_read)
                       : 0,
             "count", rows_read);
  rec.metric("storage.read_rows_us", median(read_us), "us", read_us.size());
  rec.metric("storage.decode_us", median(decode_us), "us", decode_us.size());
}

void replay_rpc_codec(const std::vector<std::int64_t>& stream,
                      std::size_t nodes, std::size_t classes, Record& rec) {
  constexpr std::size_t kCalls = 1000;  // per timed repetition
  rpc::WireRequest req;
  req.id = 1;
  req.tenant = 1;
  req.nodes.assign(stream.begin(),
                   stream.begin() + static_cast<std::ptrdiff_t>(nodes));
  std::vector<std::uint8_t> buf;
  const auto enc = time_reps([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      buf.clear();
      req.id = i;
      rpc::encode_request_into(req, buf);
    }
  });

  // A response the way a replica answers the front: full logits per part.
  Rng rng(9);
  rpc::WireResponse resp;
  resp.id = 1;
  for (std::size_t p = 0; p < nodes; ++p) {
    rpc::WirePart part;
    for (std::size_t c = 0; c < classes; ++c) {
      part.logits.push_back(static_cast<float>(rng.normal()));
    }
    resp.parts.push_back(std::move(part));
  }
  std::vector<std::uint8_t> frame;
  rpc::encode_response_into(resp, frame);
  rpc::WireResponse decoded;
  std::string err;
  bool ok = true;
  const auto dec = time_reps([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      ok &= rpc::decode_response(frame.data() + rpc::kFrameHeaderBytes,
                                 frame.size() - rpc::kFrameHeaderBytes,
                                 &decoded, &err);
    }
  });
  if (!ok) rec.incorrect("decode_response rejected its own encoding: " + err);
  rec.metric("rpc.encode_us", median(enc) / kCalls, "us", enc.size() * kCalls);
  rec.metric("rpc.decode_us", median(dec) / kCalls, "us", dec.size() * kCalls);
}

}  // namespace perfbench
