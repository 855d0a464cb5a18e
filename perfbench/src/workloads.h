// The three workloads and the per-layer replays they share.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/pp_model.h"
#include "serve/feature_source.h"
#include "tensor/tensor.h"

namespace perfbench {

// serve_mem_int8 and serve_xproc_file_fp32.
void run_serving(const Args& args, Record& rec, Tracer& tracer);
// train_sgc_storage.
void run_training(const Args& args, Record& rec, Tracer& tracer);

// --- Per-layer replays (traced runs only) -----------------------------------
// Each times calls into one layer's public functions outside the serving
// loop, on the workload's own inputs, and records the medians.

using MakeModel = std::function<std::unique_ptr<ppgnn::core::PpModel>()>;

// nn / tensor: PpModel::infer of the fp32 model at `batch`'s row count
// (nn.forward_fp32_us), and for an int8-quantized copy every Linear's
// forward (nn.linear_int8_us), activation quantize (tensor.quantize_acts_us)
// and int8 GEMM (tensor.gemm_s8_us, tensor.gemm_s8_gops), summed over
// collect_linears.  Both models load `fp32_checkpoint`.
void replay_nn(const MakeModel& make_shell, const std::string& fp32_checkpoint,
               const ppgnn::Tensor& batch, Record& rec);

// Feature gather: FeatureSource::gather per batch of `batch_rows` rows of
// `stream` (feature.gather_us).  When `cache` is set the gather runs
// through it and the cache / storage metrics are recorded too: hit rate,
// preads per missed row, read_rows_encoded per batch of missed rows and
// decode_row per row, read through `store` (the cache's backing store).
void replay_gather(ppgnn::serve::FeatureSource& source,
                   ppgnn::serve::CachedSource* cache,
                   const ppgnn::loader::FeatureFileStore* store,
                   const std::vector<std::int64_t>& stream,
                   std::size_t batch_rows, Record& rec);

// ppgnn-wire codec on the workload's envelope shape: encode_request_into
// and decode_response of a `nodes`-node request / `classes`-wide logits
// response (rpc.encode_us, rpc.decode_us).
void replay_rpc_codec(const std::vector<std::int64_t>& stream,
                      std::size_t nodes, std::size_t classes, Record& rec);

}  // namespace perfbench
