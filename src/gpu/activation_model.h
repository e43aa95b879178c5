// Symbolic replay of the prefill pass's allocation schedule.
//
// SimulatePassMemory walks the exact sequence of tensor allocations and
// frees that LlamaModel::PrefillBatch performs (src/model/llama.cc), tracking
// current and peak bytes — but symbolically, parameterized by arbitrary
// layer counts and widths. This gives:
//
//  * exact agreement with the measured TrackingAllocator peak for the CPU
//    models (asserted by tests/gpu_test.cc), and
//  * peak GPU memory estimates for paper-scale models (Llama-70B on H100),
//    which drive the Table 2 max-input-length numbers and the Fig. 10
//    ablation.
//
// This mirrors the paper's "profile run" (§3.1): PrefillOnly forwards a
// fake maximum-length request and measures peak memory; we replay the same
// schedule analytically.
//
// The walk assumes every layer has an identical schedule. That still holds
// although the real pass's last layer computes only each sequence's final
// row past its K/V projections: it allocates and frees the same tensors,
// at the same widths and in the same order, as every other layer, and
// skips only arithmetic whose output nothing reads.
#ifndef SRC_GPU_ACTIVATION_MODEL_H_
#define SRC_GPU_ACTIVATION_MODEL_H_

#include <cstdint>

#include "src/model/prefill_ablation.h"

namespace prefillonly {

// Byte-level shape of one transformer pass. Construct from LlmSpec
// (src/gpu/specs.h, GPU dtypes) or from ModelConfig (CPU float32).
struct ActivationShape {
  int64_t n_layers = 0;
  int64_t hidden = 0;
  int64_t q_size = 0;
  int64_t kv_width = 0;  // n_kv_heads * head_dim
  int64_t intermediate = 0;
  int64_t act_bytes = 2;    // activation element size
  int64_t kv_bytes = 2;     // KV cache element size
  int64_t score_bytes = 4;  // attention score scratch element size
};

enum class PassStrategy { kStandard, kChunkedPrefill, kHybrid };

struct PassOptions {
  PassStrategy strategy = PassStrategy::kHybrid;
  int64_t chunk = 512;
  // The Fig. 10 ablation, as PrefillOptions::ablation: kDropKvPerLayer
  // applies to kStandard, kNoInPlace and kNoPreallocate to kHybrid.
  PrefillAblation ablation = PrefillAblation::kNone;
  // New tokens whose KV survives the pass (hybrid retained prefix).
  int64_t retained_new_tokens = 0;
};

struct PassPeak {
  int64_t peak_bytes = 0;      // peak of activations + in-pass KV
  int64_t resident_kv_bytes = 0;  // KV resident at the peak (pass KV)
};

PassPeak SimulatePassMemory(const ActivationShape& shape, int64_t n_new,
                            int64_t n_cached, const PassOptions& options);

}  // namespace prefillonly

#endif  // SRC_GPU_ACTIVATION_MODEL_H_
