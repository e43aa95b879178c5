// GPU memory accounting per engine configuration.
//
// Combines weights, runtime overhead, the activation-schedule walker
// (activation_model.h) and KV-cache arithmetic to answer the questions the
// paper's evaluation asks:
//
//  * Table 2  — the maximum input length (MIL) each engine can serve;
//  * Fig. 10  — how each hybrid-prefilling optimization moves the MIL;
//  * §3.1     — how much memory is left for the prefix-cache pool after
//               the profile run reserves activation space.
//
// Parallel engines (TP/PP) are modeled per GPU by scaling the activation
// shape the same way the parallelism scales the tensors: TP divides head
// counts and MLP width, PP divides layer count. vLLM enables chunked
// prefill by default for these baselines, so their activation reserve is
// chunk-sized (documented deviation: the paper's A100 tensor-parallel MIL
// suggests their TP run did not chunk).
#ifndef SRC_GPU_MEMORY_MODEL_H_
#define SRC_GPU_MEMORY_MODEL_H_

#include <cstdint>
#include <string>

#include "src/gpu/activation_model.h"
#include "src/gpu/specs.h"

namespace prefillonly {

enum class EngineKind {
  kPagedAttention,   // vanilla vLLM: full-sequence pass, all KV resident
  kChunkedPrefill,   // Sarathi-style chunking, all KV resident
  kPipelineParallel, // 2-stage PP, chunked, KV split by layers
  kTensorParallel,   // TP2, chunked, KV split by heads
  kPrefillOnly,      // hybrid prefilling + suffix KV discarding (this paper)
  kKvDropNaive,      // §4.1 strawman: standard pass, drop KV per layer
};

std::string_view EngineKindName(EngineKind kind);

struct MemoryModelConfig {
  double gpu_mem_utilization = 0.94;     // vLLM-style reserve fraction
  double runtime_overhead_bytes = 2.0e9;  // CUDA ctx, NCCL, compile workspaces
  int64_t chunk_tokens = 512;            // chunked-prefill baseline
  int64_t hybrid_chunk_tokens = 2048;    // PrefillOnly's linear-layer chunk
  // PrefillOnly's Fig. 10 ablation: kNone, kNoInPlace or kNoPreallocate.
  PrefillAblation hybrid_ablation = PrefillAblation::kNone;
  int parallel_degree = 2;  // TP/PP width
  // Calibrated against Table 2: the TP baseline composes with vLLM's
  // default chunked prefill; the PP baseline does not (full-sequence
  // activation temporaries per stage). See EXPERIMENTS.md for the two
  // cells where this modeling deviates from the paper.
  bool tp_uses_chunked = true;
  bool pp_uses_chunked = false;
};

class MemoryModel {
 public:
  MemoryModel(LlmSpec llm, GpuSpec gpu, MemoryModelConfig config = {});

  const LlmSpec& llm() const { return llm_; }
  const GpuSpec& gpu() const { return gpu_; }
  const MemoryModelConfig& config() const { return config_; }

  // Memory the engine may use on one GPU (capacity x utilization - runtime).
  double UsableBytesPerGpu() const;
  double WeightBytesPerGpu(EngineKind kind) const;

  // Peak in-pass bytes (activations + transient/resident KV) on one GPU for
  // a prefill of `n_new` tokens with `n_cached` prefix tokens reused.
  PassPeak PassPeakBytes(EngineKind kind, int64_t n_new, int64_t n_cached = 0) const;

  // Largest request the engine can serve at all; 0 when even one token
  // does not fit (weights alone exceed the GPU).
  int64_t MaxInputLength(EngineKind kind) const;

  // Bytes left for the prefix-cache block pool on one GPU after the profile
  // run reserves activation space for requests up to `reserve_tokens`
  // (paper §3.1). KV resident in the pass is excluded: it lives in the pool.
  double CachePoolBytesPerGpu(EngineKind kind, int64_t reserve_tokens) const;

  // KV bytes per token on one GPU (TP halves it via heads, PP via layers).
  double KvBytesPerTokenPerGpu(EngineKind kind) const;

  // Prefix-cache capacity in tokens for one engine INSTANCE: single GPU for
  // non-parallel engines, all GPUs combined for TP/PP (the paper's Fig. 9
  // "parallelize the prefix cache across GPUs").
  int64_t CachePoolTokensPerInstance(EngineKind kind, int64_t reserve_tokens) const;

  // The activation shape (per GPU) the walker uses for this engine.
  ActivationShape ShapeFor(EngineKind kind) const;
  PassOptions OptionsFor(EngineKind kind) const;

 private:
  bool IsParallel(EngineKind kind) const {
    return kind == EngineKind::kPipelineParallel || kind == EngineKind::kTensorParallel;
  }

  LlmSpec llm_;
  GpuSpec gpu_;
  MemoryModelConfig config_;
};

}  // namespace prefillonly

#endif  // SRC_GPU_MEMORY_MODEL_H_
