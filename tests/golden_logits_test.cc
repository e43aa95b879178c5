// Golden-logits regression test (ISSUE 4).
//
// The determinism contract makes the scalar backend's bits a stable
// artifact: independent of thread count, prefill mode, chunking, partition
// width, concurrency, and batch composition. This test pins those bits to a
// checked-in golden file so silent cross-PR numeric drift — a kernel
// "cleanup" that reorders an accumulation, a weight-init reshuffle — fails
// tier-1 instead of surviving until someone inspects benchmark output.
//
// Scope: the SCALAR backend only. Its inner loops are ISO-C++ float
// arithmetic (no FMA contraction at -std=c++20, no reassociation), so the
// bits are reproducible wherever the same libm feeds SwiGLU/softmax's
// expf. The golden values are tied to this repo's build environment
// (container gcc + glibc); if a toolchain bump legitimately moves them,
// regenerate and commit the diff alongside the bump:
//
//   cmake -B build -S . && cmake --build build -j --target prefillonly_core
//   g++ -O3 -DNDEBUG -std=c++20 -I. gen.cc build/libprefillonly_core.a -lpthread -o gen
//   ./gen > tests/golden_logits.inc
//
// (gen.cc, the generator, mirrors the constants below: ModelConfig::Tiny,
// weight seed 42, prompts Rng(777 + p) of lengths {5, 17, 33, 40}, vocab
// 256, default hybrid PrefillOptions for the model pass; engine with
// num_threads 1, block_size 16, cache_budget 512, chunk 32, allowed tokens
// {3, 7, 11, 19}, prompts scored in order. Lengths 33 and 40 share a
// LengthBucket so the batched variant below really stacks them.)
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/model/llama.h"
#include "tests/engine_backlog.h"
#include "tests/golden_logits.inc"

namespace prefillonly {
namespace {

// Escape hatch for hosts whose libm legitimately rounds differently from
// the environment the golden file was generated in (see the header
// comment): PREFILLONLY_GOLDEN=off skips the suite with a visible notice
// instead of failing tier-1 on a toolchain difference.
bool GoldenDisabled() {
  const char* env = std::getenv("PREFILLONLY_GOLDEN");
  return env != nullptr && std::string_view(env) == "off";
}

#define PO_SKIP_IF_GOLDEN_OFF()                                               \
  if (GoldenDisabled()) {                                                     \
    GTEST_SKIP() << "PREFILLONLY_GOLDEN=off: golden bits tied to another "    \
                    "toolchain; regenerate per the header recipe to re-arm."; \
  }

uint64_t Fnv1a(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<int32_t> Prompt(uint64_t seed, int64_t n) {
  Rng rng(seed);
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(256));
  }
  return out;
}

EngineOptions GoldenEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.kernel_backend = KernelBackend::kScalar;
  options.num_threads = 1;
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.chunk_size = 32;
  return options;
}

TEST(GoldenLogitsTest, ModelLogitsMatchGoldenBits) {
  PO_SKIP_IF_GOLDEN_OFF();
  LlamaModel model(ModelConfig::Tiny(), /*seed=*/42, KernelBackend::kScalar);
  TrackingAllocator arena;
  for (int p = 0; p < golden::kNumPrompts; ++p) {
    const auto tokens =
        Prompt(777 + static_cast<uint64_t>(p), golden::kPromptLengths[p]);
    PrefillOptions options;  // hybrid defaults, exactly like the generator
    auto pass = model.Prefill(tokens, nullptr, options, arena);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    const auto& logits = pass.value().last_logits;
    ASSERT_EQ(logits.size(), 256u);
    for (int i = 0; i < 16; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &logits[static_cast<size_t>(i)], sizeof(bits));
      EXPECT_EQ(bits, golden::kLogitsHead[p][i])
          << "prompt " << p << " logit " << i << " drifted: " << logits[i];
    }
    EXPECT_EQ(Fnv1a(logits.data(), logits.size() * sizeof(float)),
              golden::kLogitsHash[p])
        << "prompt " << p << ": some logit beyond the spot-checked head drifted";
  }
}

TEST(GoldenLogitsTest, EngineProbabilitiesMatchGoldenBits) {
  PO_SKIP_IF_GOLDEN_OFF();
  Engine engine(GoldenEngineOptions());
  for (int p = 0; p < golden::kNumPrompts; ++p) {
    ScoringRequest request;
    request.user_id = p;
    request.tokens = Prompt(777 + static_cast<uint64_t>(p), golden::kPromptLengths[p]);
    request.allowed_tokens = {3, 7, 11, 19};
    auto response = engine.ScoreSync(std::move(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().probabilities.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &response.value().probabilities[i].probability,
                  sizeof(bits));
      EXPECT_EQ(bits, golden::kProbabilityBits[p][i])
          << "prompt " << p << " probability " << i << " drifted: "
          << response.value().probabilities[i].probability;
    }
  }
}

TEST(GoldenLogitsTest, BatchedEngineMatchesGoldenBitsToo) {
  // The same prompts drained as one max_batch_size = 4 backlog: the batched
  // path must reproduce the same golden bits (the solo/batched contract,
  // anchored to an absolute reference instead of a relative one).
  PO_SKIP_IF_GOLDEN_OFF();
  EngineOptions options = GoldenEngineOptions();
  options.max_batch_size = 4;
  Engine engine(options);
  Backlog backlog(engine);
  for (int p = 0; p < golden::kNumPrompts; ++p) {
    ScoringRequest request;
    request.user_id = p;
    request.tokens = Prompt(777 + static_cast<uint64_t>(p), golden::kPromptLengths[p]);
    request.allowed_tokens = {3, 7, 11, 19};
    ASSERT_TRUE(backlog.Submit(std::move(request)).ok());
  }
  auto responses = backlog.Drain();
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses.value().size(), static_cast<size_t>(golden::kNumPrompts));
  for (const ScoringResponse& response : responses.value()) {
    const auto p = static_cast<size_t>(response.user_id);
    for (size_t i = 0; i < 4; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &response.probabilities[i].probability, sizeof(bits));
      EXPECT_EQ(bits, golden::kProbabilityBits[p][i])
          << "prompt " << p << " probability " << i << " (batched path)";
    }
  }
  // The length-33 and length-40 prompts share a bucket: at least one real
  // (>= 2) batch must have formed, so this anchored the stacked path too.
  EXPECT_GE(engine.stats().peak_batch_size, 2);
}

// ------------------------------------------------------ avx2 fingerprints
//
// The avx2 backend's bits, pinned the same way: FNV-1a over the last-
// position logits of the `small` model (weight seed 42) for prompts
// Prompt(900 + n, n). Within a backend the bits are independent of prefill
// mode, thread count and prefix reuse, so every (mode, threads) pair and the
// cached-prefix pass must hit the one fingerprint recorded per length. A
// kernel change that is meant to keep avx2 bits (the tiled attention
// kernel does) must leave these untouched; one that legitimately moves them
// regenerates them from the failure messages, which print the new value.

struct Avx2Golden {
  int64_t length;
  uint64_t hash;
};

constexpr Avx2Golden kAvx2Golden[] = {
    {1, 0x4148b70c62b419acull},
    {7, 0xf4f41dcb1b0367ffull},
    {150, 0x4c085bcba6ea121cull},
    {500, 0x9563cb2d8aae90aaull},
};

#define PO_SKIP_IF_NO_AVX2()                                                  \
  if (!Avx2Available()) {                                                     \
    GTEST_SKIP() << "host lacks AVX2+FMA; avx2 golden fingerprints skipped";  \
  }

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull", v);
  return buf;
}

TEST(GoldenLogitsAvx2Test, SmallModelFingerprintsHoldInEveryModeAndThreadCount) {
  PO_SKIP_IF_GOLDEN_OFF();
  PO_SKIP_IF_NO_AVX2();
  LlamaModel model(ModelConfig::Small(), /*seed=*/42, KernelBackend::kAvx2);
  ASSERT_EQ(model.kernel_backend(), KernelBackend::kAvx2);
  TrackingAllocator arena;
  for (const int threads : {1, 2}) {
    ThreadPool pool(threads);
    model.SetThreadPool(&pool);
    for (const PrefillMode mode :
         {PrefillMode::kStandard, PrefillMode::kChunked, PrefillMode::kHybrid}) {
      for (const Avx2Golden& g : kAvx2Golden) {
        const auto tokens = Prompt(900 + static_cast<uint64_t>(g.length), g.length);
        PrefillOptions options;
        options.mode = mode;
        auto pass = model.Prefill(tokens, nullptr, options, arena);
        ASSERT_TRUE(pass.ok()) << pass.status().ToString();
        const auto& logits = pass.value().last_logits;
        const uint64_t got = Fnv1a(logits.data(), logits.size() * sizeof(float));
        EXPECT_EQ(got, g.hash) << "length " << g.length << " mode "
                               << static_cast<int>(mode) << " threads " << threads
                               << " drifted: now " << Hex(got);
      }
    }
  }
  model.SetThreadPool(nullptr);
}

TEST(GoldenLogitsAvx2Test, CachedPrefixPassHitsTheSameFingerprint) {
  PO_SKIP_IF_GOLDEN_OFF();
  PO_SKIP_IF_NO_AVX2();
  LlamaModel model(ModelConfig::Small(), /*seed=*/42, KernelBackend::kAvx2);
  TrackingAllocator arena;
  const Avx2Golden& g = kAvx2Golden[3];
  ASSERT_EQ(g.length, 500);
  const auto tokens = Prompt(900 + static_cast<uint64_t>(g.length), g.length);
  const int64_t n_prefix = 128;

  PrefillOptions keep;
  keep.retention = KvRetention::kAll;
  auto head = model.Prefill(std::span<const int32_t>(tokens).first(n_prefix), nullptr,
                            keep, arena);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  const KvCacheData& prefix = head.value().kv;
  ASSERT_EQ(prefix.n_tokens, n_prefix);

  for (const PrefillMode mode :
       {PrefillMode::kStandard, PrefillMode::kChunked, PrefillMode::kHybrid}) {
    PrefillOptions options;
    options.mode = mode;
    auto pass = model.Prefill(tokens, &prefix, options, arena);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    EXPECT_EQ(pass.value().n_new, g.length - n_prefix);
    const auto& logits = pass.value().last_logits;
    const uint64_t got = Fnv1a(logits.data(), logits.size() * sizeof(float));
    EXPECT_EQ(got, g.hash) << "cached-prefix pass, mode " << static_cast<int>(mode)
                           << " drifted: now " << Hex(got);
  }
}

}  // namespace
}  // namespace prefillonly
