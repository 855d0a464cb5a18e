// InferenceSession: a deployed PP-GNN answering per-node prediction
// requests.
//
// PP-GNNs are uniquely serving-friendly (the flip side of the paper's
// training story): all graph structure was consumed at preprocessing time,
// so online inference is a pure MLP over the node's precomputed expanded
// row — no neighborhood explosion, no sampler, no graph in the serving
// tier at all.  A session is (model weights from an nn/serialize
// checkpoint) x (a FeatureSource resolving node ids to expanded rows), and
// a request is just a node id.
//
// Serving precision: a fleet runs either kFp32 (exact, the default) or
// kInt8 — post-training per-channel quantization of every Linear
// (core::quantize_int8), typically paired with an int8 FeatureFileStore
// codec and a quantized checkpoint so weights, rows on disk, and the
// cached resident set all shrink ~4x together.  FleetBuilder
// quantizes ONE model copy and shares the immutable int8 blocks across
// replicas; answers stay deterministic (fixed accumulation order), just
// quantized — test_replica_set bounds the error against the fp32 fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pp_model.h"
#include "serve/feature_source.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor.h"

namespace ppgnn::serve {

// Numeric precision of a deployed model's inference path.
enum class Precision { kFp32, kInt8 };

const char* precision_name(Precision p);
bool parse_precision(const std::string& s, Precision* out);

class InferenceSession {
 public:
  // Takes ownership of both.  The feature source's row_dim() must match the
  // model's expected input width; checked lazily on first inference.
  // `precision` records how the model was prepared (it does not itself
  // transform the model — see FleetBuilder / core::quantize_int8).
  InferenceSession(std::unique_ptr<core::PpModel> model,
                   std::unique_ptr<FeatureSource> features,
                   Precision precision = Precision::kFp32);

  // Resolves features and runs one eval-mode forward; returns logits
  // [nodes.size(), classes].  Calls are serialized internally (PpModel
  // implementations keep forward scratch state), and the forward runs on
  // the calling thread (core/pp_model.h), so a replica computes on its
  // dispatcher thread alone.
  Tensor infer_nodes(const std::vector<std::int64_t>& nodes);

  // Single-request convenience: the logits row for one node.
  std::vector<float> infer_one(std::int64_t node);

  std::size_t num_nodes() const { return features_->num_rows(); }
  core::PpModel& model() { return *model_; }
  FeatureSource& features() { return *features_; }
  Precision precision() const { return precision_; }
  // The INT8 GEMM kernel arm this session's weights dispatch to
  // (tensor/cpu_features.h): the packed layout's arm for a quantized
  // model, active_isa() otherwise (what quantizing now would pick).
  // serve_cli and the fleet build log surface this so a deployment
  // records which rung of the SIMD ladder it runs on.
  Isa kernel_isa();

 private:
  std::unique_ptr<core::PpModel> model_;
  std::unique_ptr<FeatureSource> features_;
  Precision precision_;
  std::mutex mu_;
};

// Offline precision-drift measurement: infers `sample` through both
// sessions and reports top-1 agreement plus the max absolute logit
// difference — the accuracy column serve_cli gates on (>= 99% agreement
// at int8) and the serving bench records in its JSON artifact.
struct PrecisionDrift {
  double top1_agreement = 1.0;
  double max_logit_err = 0.0;
  std::size_t sampled = 0;
};
PrecisionDrift compare_precision(InferenceSession& reference,
                                 InferenceSession& quantized,
                                 const std::vector<std::int64_t>& sample);

// Deployment round-trip helpers over nn/serialize: weights-only checkpoints
// (optimizer state has no business in a serving tier — contrast
// core/checkpoint.h, which restores training runs).  Saving with kInt8
// writes the quantized checkpoint section (~4x less weight data for the
// fleet to pull); load_deployed_model auto-detects either format.
void save_deployed_model(core::PpModel& model, const std::string& path,
                         Precision precision = Precision::kFp32);
void load_deployed_model(core::PpModel& model, const std::string& path);

// Recipe for stamping out identical replica sessions — at fleet
// construction AND at any later scale-up, which is why it is the fleet's
// one deployment surface (the build-once shim it replaced is gone).
//
// make_model(ordinal) constructs a model shell (any init — it is
// overwritten from the checkpoint at `checkpoint_path`, the same
// deployment round trip a single session uses) and make_source(ordinal)
// the replica's private FeatureSource.  Per-replica sources are the
// point: a CachedSource built per replica gives each its own RowCache,
// which cache_affinity routing then specializes on a key-space shard.
// Ordinals increase monotonically across the builder's lifetime (the
// FleetManager passes generation ids), so the callbacks can seed
// per-replica state distinctly.
//
// With Precision::kInt8 the builder quantizes ONE donor model on first
// build (core::quantize_int8) and every session built — first fleet and
// every autoscaled spawn alike — adopts the donor's immutable quantized
// weight blocks (share_quantized_weights).  The fleet holds one int8 copy
// of the weights no matter how many replicas ever run, a spawned
// replica's weights cost only the shared_ptr bump, and all replicas
// answer bit-identically to each other by construction.
//
// NOT thread-safe: the FleetManager serializes build() calls behind its
// admin lock (builds never touch the submit hot path).
class FleetBuilder {
 public:
  using MakeModel =
      std::function<std::unique_ptr<core::PpModel>(std::size_t)>;
  using MakeSource =
      std::function<std::unique_ptr<FeatureSource>(std::size_t)>;

  FleetBuilder(std::string checkpoint_path, MakeModel make_model,
               MakeSource make_source,
               Precision precision = Precision::kFp32);

  std::unique_ptr<InferenceSession> build(std::size_t ordinal);
  std::vector<std::unique_ptr<InferenceSession>> build_n(std::size_t n);

  Precision precision() const { return precision_; }

 private:
  std::string checkpoint_path_;
  MakeModel make_model_;
  MakeSource make_source_;
  Precision precision_;
  // kInt8 only: loaded + quantized once, kept alive as the source of the
  // shared weight blocks for every subsequent build.
  std::unique_ptr<core::PpModel> donor_;
};

}  // namespace ppgnn::serve
