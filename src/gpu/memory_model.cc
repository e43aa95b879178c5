#include "src/gpu/memory_model.h"

#include <algorithm>
#include <cassert>

namespace prefillonly {

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPagedAttention:
      return "PagedAttention";
    case EngineKind::kChunkedPrefill:
      return "Chunked Prefill";
    case EngineKind::kPipelineParallel:
      return "Pipeline Parallel";
    case EngineKind::kTensorParallel:
      return "Tensor Parallel";
    case EngineKind::kPrefillOnly:
      return "PrefillOnly";
    case EngineKind::kKvDropNaive:
      return "KV-drop (naive)";
  }
  return "?";
}

MemoryModel::MemoryModel(LlmSpec llm, GpuSpec gpu, MemoryModelConfig config)
    : llm_(std::move(llm)), gpu_(std::move(gpu)), config_(config) {}

double MemoryModel::UsableBytesPerGpu() const {
  return gpu_.mem_bytes * config_.gpu_mem_utilization - config_.runtime_overhead_bytes;
}

double MemoryModel::WeightBytesPerGpu(EngineKind kind) const {
  const double total = llm_.weight_bytes();
  return IsParallel(kind) ? total / config_.parallel_degree : total;
}

ActivationShape MemoryModel::ShapeFor(EngineKind kind) const {
  ActivationShape s;
  s.n_layers = llm_.n_layers;
  s.hidden = llm_.hidden;
  s.q_size = llm_.q_size();
  s.kv_width = llm_.kv_width();
  s.intermediate = llm_.intermediate;
  s.act_bytes = llm_.act_bytes;
  s.kv_bytes = llm_.kv_bytes;
  const int64_t p = config_.parallel_degree;
  if (kind == EngineKind::kTensorParallel) {
    // TP shards heads and MLP columns; the hidden (residual) dimension and
    // layer count stay whole on every GPU.
    s.q_size /= p;
    s.kv_width /= p;
    s.intermediate /= p;
  } else if (kind == EngineKind::kPipelineParallel) {
    s.n_layers = (s.n_layers + p - 1) / p;
  }
  return s;
}

PassOptions MemoryModel::OptionsFor(EngineKind kind) const {
  PassOptions opt;
  switch (kind) {
    case EngineKind::kPagedAttention:
      opt.strategy = PassStrategy::kStandard;
      break;
    case EngineKind::kKvDropNaive:
      opt.strategy = PassStrategy::kStandard;
      opt.ablation = PrefillAblation::kDropKvPerLayer;
      break;
    case EngineKind::kChunkedPrefill:
      opt.strategy = PassStrategy::kChunkedPrefill;
      opt.chunk = config_.chunk_tokens;
      break;
    case EngineKind::kPipelineParallel:
      opt.strategy = config_.pp_uses_chunked ? PassStrategy::kChunkedPrefill
                                             : PassStrategy::kStandard;
      opt.chunk = config_.chunk_tokens;
      break;
    case EngineKind::kTensorParallel:
      opt.strategy = config_.tp_uses_chunked ? PassStrategy::kChunkedPrefill
                                             : PassStrategy::kStandard;
      opt.chunk = config_.chunk_tokens;
      break;
    case EngineKind::kPrefillOnly:
      opt.strategy = PassStrategy::kHybrid;
      opt.chunk = config_.hybrid_chunk_tokens;
      opt.ablation = config_.hybrid_ablation;
      break;
  }
  return opt;
}

PassPeak MemoryModel::PassPeakBytes(EngineKind kind, int64_t n_new,
                                    int64_t n_cached) const {
  return SimulatePassMemory(ShapeFor(kind), n_new, n_cached, OptionsFor(kind));
}

int64_t MemoryModel::MaxInputLength(EngineKind kind) const {
  const double budget = UsableBytesPerGpu() - WeightBytesPerGpu(kind);
  if (budget <= 0) {
    return 0;
  }
  const auto fits = [&](int64_t tokens) {
    return static_cast<double>(PassPeakBytes(kind, tokens).peak_bytes) <= budget;
  };
  if (!fits(1)) {
    return 0;
  }
  int64_t lo = 1;          // fits
  int64_t hi = 64LL << 20;  // 64M tokens: above any realistic answer
  if (fits(hi)) {
    return hi;
  }
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    (fits(mid) ? lo : hi) = mid;
  }
  return lo;
}

double MemoryModel::CachePoolBytesPerGpu(EngineKind kind, int64_t reserve_tokens) const {
  const PassPeak peak = PassPeakBytes(kind, std::max<int64_t>(reserve_tokens, 1));
  // The resident pass KV lives in the block pool itself (it becomes cache
  // on completion), so only the non-KV activation peak is reserved.
  const double activation_reserve =
      static_cast<double>(peak.peak_bytes - peak.resident_kv_bytes);
  const double pool = UsableBytesPerGpu() - WeightBytesPerGpu(kind) - activation_reserve;
  return std::max(pool, 0.0);
}

double MemoryModel::KvBytesPerTokenPerGpu(EngineKind kind) const {
  const double full = static_cast<double>(llm_.kv_bytes_per_token());
  return IsParallel(kind) ? full / config_.parallel_degree : full;
}

int64_t MemoryModel::CachePoolTokensPerInstance(EngineKind kind,
                                                int64_t reserve_tokens) const {
  const double per_gpu = CachePoolBytesPerGpu(kind, reserve_tokens);
  const double kv_per_token = KvBytesPerTokenPerGpu(kind);
  if (kv_per_token <= 0) {
    return 0;
  }
  const double gpus_per_instance = IsParallel(kind) ? config_.parallel_degree : 1;
  return static_cast<int64_t>(per_gpu / kv_per_token * gpus_per_instance);
}

}  // namespace prefillonly
