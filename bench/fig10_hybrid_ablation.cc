// Fig. 10: how each hybrid-prefilling optimization moves the maximum input
// length, on Qwen-32B (fp8) + one A100 40GB — the paper's ablation:
// vanilla vLLM -> chunked prefill (hurts performance) -> hybrid chunking
// -> + output preallocation -> + in-place computation (7.9x vanilla).
//
// Also reproduced MEASURED on the real CPU engine: the same ablation as
// peak activation bytes for a 512-token prefill of the scaled model.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/gpu/memory_model.h"
#include "src/model/llama.h"

int main() {
  using namespace prefillonly;
  bench::Header("Fig. 10 - hybrid prefilling ablation");

  const auto hw = HardwareSetup::A100_Qwen32B();
  std::printf("\n[A] MODELED max input length, %s on 1x %s\n", hw.llm.name.c_str(),
              hw.gpu.name.c_str());

  auto mil_hybrid = [&](PrefillAblation ablation) {
    MemoryModelConfig config;
    config.hybrid_ablation = ablation;
    MemoryModel mem(hw.llm, hw.gpu, config);
    return mem.MaxInputLength(EngineKind::kPrefillOnly);
  };
  MemoryModel base(hw.llm, hw.gpu);
  const long vanilla = base.MaxInputLength(EngineKind::kPagedAttention);
  const long chunked = base.MaxInputLength(EngineKind::kChunkedPrefill);
  const long h_chunk = mil_hybrid(PrefillAblation::kNoPreallocate);
  const long h_pre = mil_hybrid(PrefillAblation::kNoInPlace);
  const long h_ip = mil_hybrid(PrefillAblation::kNone);

  struct Row {
    const char* name;
    long mil;
  } rows[] = {
      {"Vanilla vLLM (paged)", vanilla},
      {"Chunked prefill (hurts perf)", chunked},
      {"Hybrid: chunking", h_chunk},
      {"Hybrid: + preallocation", h_pre},
      {"Hybrid: + in-place", h_ip},
  };
  for (const auto& row : rows) {
    std::printf("  %-30s %8ld tokens  (%.1fx vanilla) |%s\n", row.name, row.mil,
                static_cast<double>(row.mil) / vanilla,
                std::string(static_cast<size_t>(row.mil / 4000), '#').c_str());
  }
  std::printf("  paper: full hybrid reaches 7.9x vanilla vLLM\n");

  std::printf("\n[B] MEASURED peak activation bytes, scaled model, 512 tokens\n");
  LlamaModel model(ModelConfig::Small(), 9);
  Rng rng(10);
  std::vector<int32_t> tokens(512);
  for (auto& t : tokens) {
    t = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(model.config().vocab_size)));
  }
  auto peak = [&](PrefillMode mode, PrefillAblation ablation) -> double {
    TrackingAllocator alloc;
    PrefillOptions options;
    options.mode = mode;
    options.chunk_size = 32;
    options.ablation = ablation;
    auto result = model.Prefill(tokens, nullptr, options, alloc);
    if (!result.ok()) {
      return 0.0;
    }
    return static_cast<double>(alloc.peak_bytes());
  };
  const double std_peak = peak(PrefillMode::kStandard, PrefillAblation::kNone);
  std::printf("  %-30s %8.2f MB\n", "Standard (vanilla)", std_peak / 1e6);
  std::printf("  %-30s %8.2f MB\n", "Hybrid: chunking",
              peak(PrefillMode::kHybrid, PrefillAblation::kNoPreallocate) / 1e6);
  std::printf("  %-30s %8.2f MB\n", "Hybrid: + preallocation",
              peak(PrefillMode::kHybrid, PrefillAblation::kNoInPlace) / 1e6);
  std::printf("  %-30s %8.2f MB\n", "Hybrid: + in-place",
              peak(PrefillMode::kHybrid, PrefillAblation::kNone) / 1e6);
  return 0;
}
