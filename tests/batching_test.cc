// Batched-vs-solo bitwise parity suite (ISSUE 4).
//
// The determinism contract, third extension: WITHIN a kernel backend, a
// request's logits (and retained KV) are bitwise identical whether it
// prefilled solo, concurrently, or stacked into a batch of any composition.
// This file proves it at the model layer (LlamaModel::PrefillBatch against
// solo Prefill, randomized compositions, per backend x thread count x
// prefill mode) and at the engine layer (max_batch_size > 1 against the
// serial single-thread reference), plus the admission/occupancy accounting
// and the checked-misuse errors of the batch API.
//
// The heavier randomized sweep lives in BatchingSweepSlowTest.* — labeled
// `slow` in ctest (CMakeLists.txt), so `ctest -LE slow` gives a fast
// tier-1 iteration loop while CI still runs it per backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/request.h"
#include "src/model/llama.h"
#include "src/sched/batch_cost.h"

namespace prefillonly {
namespace {

// ------------------------------------------------------------ shared bits

::testing::AssertionResult SameFloatBits(const std::vector<float>& a,
                                         const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << a[i] << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameKvBits(const KvCacheData& a, const KvCacheData& b) {
  if (a.n_tokens != b.n_tokens || a.layers.size() != b.layers.size()) {
    return ::testing::AssertionFailure()
           << "kv shape: " << a.n_tokens << "x" << a.layers.size() << " vs "
           << b.n_tokens << "x" << b.layers.size();
  }
  for (size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].k.bytes() != b.layers[l].k.bytes() ||
        std::memcmp(a.layers[l].k.data(), b.layers[l].k.data(),
                    a.layers[l].k.bytes()) != 0 ||
        std::memcmp(a.layers[l].v.data(), b.layers[l].v.data(),
                    a.layers[l].v.bytes()) != 0) {
      return ::testing::AssertionFailure() << "kv layer " << l << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<int32_t> RandomTokens(Rng& rng, int64_t n, int64_t vocab = 256) {
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return out;
}

std::vector<KernelBackend> BackendsUnderTest() {
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (Avx2Available()) {
    backends.push_back(KernelBackend::kAvx2);
  }
  return backends;
}

PrefillOptions ModeOptions(PrefillMode mode) {
  PrefillOptions options;
  options.mode = mode;
  options.chunk_size = 16;  // several chunk boundaries inside small batches
  return options;
}

constexpr PrefillMode kAllModes[] = {PrefillMode::kStandard, PrefillMode::kChunked,
                                     PrefillMode::kHybrid};

// One randomly drawn request: tokens, an optional cached prefix (built the
// way the engine builds one: the KV of tokens [0, n_cached) produced by a
// budgeted solo prefill), and a retention budget of its own.
struct DrawnRequest {
  std::vector<int32_t> tokens;
  KvCacheData prefix;  // empty = no cached prefix
  int64_t prefix_budget_tokens = 0;
};

DrawnRequest Draw(Rng& rng, const LlamaModel& model, int64_t max_len,
                  TrackingAllocator& arena, const PrefillOptions& mode_options) {
  DrawnRequest drawn;
  const int64_t len = 1 + static_cast<int64_t>(rng.NextBounded(
                              static_cast<uint64_t>(max_len)));
  drawn.tokens = RandomTokens(rng, len);
  drawn.prefix_budget_tokens =
      static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(len + 8)));
  // Half the requests carry a cached prefix of random length < len.
  if (len > 1 && rng.NextBounded(2) == 0) {
    const int64_t n_cached =
        1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(len - 1)));
    PrefillOptions warm = mode_options;
    warm.retention = KvRetention::kPrefixBudget;
    warm.prefix_budget_tokens = n_cached;
    const std::span<const int32_t> head(drawn.tokens);
    auto pass = model.Prefill(head.subspan(0, static_cast<size_t>(n_cached + 1)),
                              nullptr, warm, arena);
    EXPECT_TRUE(pass.ok()) << pass.status().ToString();
    drawn.prefix = std::move(pass.value().kv);
    EXPECT_EQ(drawn.prefix.n_tokens, n_cached);
  }
  return drawn;
}

PrefillSequence SequenceOf(const DrawnRequest& drawn) {
  PrefillSequence seq;
  seq.tokens = drawn.tokens;
  seq.cached_prefix = drawn.prefix.empty() ? nullptr : &drawn.prefix;
  seq.retention = KvRetention::kPrefixBudget;
  seq.prefix_budget_tokens = drawn.prefix_budget_tokens;
  return seq;
}

// Runs `rounds` random compositions on one (backend, threads, mode) cell and
// asserts solo == batched, bitwise, for logits and retained KV.
void RunCompositions(KernelBackend backend, int threads, PrefillMode mode,
                     uint64_t seed, int rounds, int max_batch, int64_t max_len) {
  LlamaModel model(ModelConfig::Tiny(), /*seed=*/42, backend);
  ThreadPool pool(threads);
  model.SetThreadPool(&pool);
  TrackingAllocator arena;
  Rng rng(seed);
  PrefillOptions options = ModeOptions(mode);

  for (int round = 0; round < rounds; ++round) {
    const int batch =
        1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_batch)));
    std::vector<DrawnRequest> drawn;
    drawn.reserve(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      drawn.push_back(Draw(rng, model, max_len, arena, options));
    }

    // Solo reference for every member.
    std::vector<PrefillResult> solo;
    for (const DrawnRequest& d : drawn) {
      PrefillOptions solo_options = options;
      solo_options.retention = KvRetention::kPrefixBudget;
      solo_options.prefix_budget_tokens = d.prefix_budget_tokens;
      auto pass = model.Prefill(d.tokens, d.prefix.empty() ? nullptr : &d.prefix,
                                solo_options, arena);
      ASSERT_TRUE(pass.ok()) << pass.status().ToString();
      solo.push_back(pass.take());
    }

    std::vector<PrefillSequence> sequences;
    for (const DrawnRequest& d : drawn) {
      sequences.push_back(SequenceOf(d));
    }
    auto batched = model.PrefillBatch(sequences, options, arena);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched.value().size(), drawn.size());

    for (size_t i = 0; i < drawn.size(); ++i) {
      const PrefillResult& b = batched.value()[i];
      SCOPED_TRACE("backend=" + std::string(KernelBackendName(backend)) +
                   " threads=" + std::to_string(threads) +
                   " mode=" + std::to_string(static_cast<int>(mode)) +
                   " round=" + std::to_string(round) + " member=" +
                   std::to_string(i) + "/" + std::to_string(drawn.size()));
      EXPECT_EQ(b.n_new, solo[i].n_new);
      EXPECT_EQ(b.kv_start, solo[i].kv_start);
      EXPECT_TRUE(SameFloatBits(b.last_logits, solo[i].last_logits));
      EXPECT_TRUE(SameKvBits(b.kv, solo[i].kv));
    }
  }
}

// ------------------------------------------------- model-layer parity

TEST(BatchingParityTest, SingleSequenceBatchMatchesSoloExactly) {
  for (KernelBackend backend : BackendsUnderTest()) {
    for (PrefillMode mode : kAllModes) {
      RunCompositions(backend, /*threads=*/1, mode, /*seed=*/11, /*rounds=*/2,
                      /*max_batch=*/1, /*max_len=*/40);
    }
  }
}

TEST(BatchingParityTest, RandomCompositionsMatchSoloBitwise) {
  // The tier-1 slice of the sweep: every backend and mode, thread counts
  // {1, 2, 8}, batch sizes 1..4, lengths 1..max (so the m == 1 GEMV path,
  // chunk-boundary-straddling sequences and cached prefixes all occur).
  for (KernelBackend backend : BackendsUnderTest()) {
    for (int threads : {1, 2, 8}) {
      for (PrefillMode mode : kAllModes) {
        RunCompositions(backend, threads, mode,
                        /*seed=*/1000 + static_cast<uint64_t>(threads),
                        /*rounds=*/2, /*max_batch=*/4, /*max_len=*/48);
      }
    }
  }
}

TEST(BatchingParityTest, HybridAblationLevelsStayExact) {
  // preallocate/in_place off is the §4.3 ablation path of the hybrid pass;
  // the batched implementation mirrors it and must stay bit-exact too.
  for (KernelBackend backend : BackendsUnderTest()) {
    LlamaModel model(ModelConfig::Tiny(), 42, backend);
    ThreadPool pool(2);
    model.SetThreadPool(&pool);
    TrackingAllocator arena;
    Rng rng(77);
    for (const bool prealloc : {true, false}) {
      PrefillOptions options = ModeOptions(PrefillMode::kHybrid);
      options.preallocate_outputs = prealloc;
      options.in_place = prealloc;  // in_place requires preallocation
      std::vector<DrawnRequest> drawn;
      for (int i = 0; i < 3; ++i) {
        drawn.push_back(Draw(rng, model, 40, arena, options));
      }
      std::vector<PrefillSequence> sequences;
      std::vector<PrefillResult> solo;
      for (const DrawnRequest& d : drawn) {
        PrefillOptions solo_options = options;
        solo_options.retention = KvRetention::kPrefixBudget;
        solo_options.prefix_budget_tokens = d.prefix_budget_tokens;
        auto pass = model.Prefill(d.tokens, d.prefix.empty() ? nullptr : &d.prefix,
                                  solo_options, arena);
        ASSERT_TRUE(pass.ok()) << pass.status().ToString();
        solo.push_back(pass.take());
        sequences.push_back(SequenceOf(d));
      }
      auto batched = model.PrefillBatch(sequences, options, arena);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      for (size_t i = 0; i < drawn.size(); ++i) {
        EXPECT_TRUE(SameFloatBits(batched.value()[i].last_logits,
                                  solo[i].last_logits))
            << "prealloc=" << prealloc << " member " << i;
        EXPECT_TRUE(SameKvBits(batched.value()[i].kv, solo[i].kv));
      }
    }
  }
}

TEST(BatchingParityTest, BatchApiChecksMisuse) {
  LlamaModel model(ModelConfig::Tiny(), 42, KernelBackend::kScalar);
  TrackingAllocator arena;
  PrefillOptions options;

  auto empty = model.PrefillBatch({}, options, arena);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // drop_kv_in_pass is valid in a batch, but not next to a sequence that
  // keeps its KV.
  const std::vector<int32_t> tokens{1, 2, 3};
  std::vector<PrefillSequence> two(2);
  two[0].tokens = tokens;
  two[1].tokens = tokens;
  two[1].retention = KvRetention::kAll;
  PrefillOptions drop = options;
  drop.mode = PrefillMode::kStandard;
  drop.drop_kv_in_pass = true;
  auto dropped = model.PrefillBatch(two, drop, arena);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kInvalidArgument);

  const std::vector<int32_t> bad_tokens{1, 999999};
  std::vector<PrefillSequence> bad(1);
  bad[0].tokens = bad_tokens;
  auto invalid = model.PrefillBatch(bad, options, arena);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------- pinned peaks and abort polls
//
// Prefill is a one-sequence PrefillBatch. The tracked activation peak (which
// the activation walker, the MIL predictions and Fig. 3 replay) and the
// number of abort_check polls below were recorded from the dedicated
// single-sequence passes this model used to carry, at 150 tokens with chunk
// 24. Prefill and a one-sequence PrefillBatch must both still read them, at
// every thread count, with bitwise-equal logits and retained KV.

enum class PinnedPass { kStd, kChunked, kHybrid, kHybridNoInPlace, kHybridNoPrealloc, kStdDrop };

struct PinnedCell {
  bool small;  // ModelConfig::Small() instead of Tiny()
  PinnedPass pass;
  KvRetention retention;  // kPrefixBudget keeps positions [0, 96)
  int64_t n_cached;
  size_t peak_bytes;
  int64_t polls;
};

constexpr bool kTiny = false;
constexpr bool kSmall = true;
using enum PinnedPass;

constexpr PinnedCell kPinnedCells[] = {
        {kTiny, kStd, KvRetention::kNone, 0, 519000, 2},
        {kTiny, kStd, KvRetention::kNone, 32, 408408, 2},
        {kTiny, kStd, KvRetention::kAll, 0, 519000, 2},
        {kTiny, kStd, KvRetention::kAll, 32, 408408, 2},
        {kTiny, kStd, KvRetention::kPrefixBudget, 0, 519000, 2},
        {kTiny, kStd, KvRetention::kPrefixBudget, 32, 408408, 2},
        {kTiny, kChunked, KvRetention::kNone, 0, 148056, 7},
        {kTiny, kChunked, KvRetention::kNone, 32, 131672, 5},
        {kTiny, kChunked, KvRetention::kAll, 0, 148056, 7},
        {kTiny, kChunked, KvRetention::kAll, 32, 131672, 5},
        {kTiny, kChunked, KvRetention::kPrefixBudget, 0, 148056, 7},
        {kTiny, kChunked, KvRetention::kPrefixBudget, 32, 131672, 5},
        {kTiny, kHybrid, KvRetention::kNone, 0, 257112, 42},
        {kTiny, kHybrid, KvRetention::kNone, 32, 216152, 30},
        {kTiny, kHybrid, KvRetention::kAll, 0, 333912, 42},
        {kTiny, kHybrid, KvRetention::kAll, 32, 276568, 30},
        {kTiny, kHybrid, KvRetention::kPrefixBudget, 0, 306264, 42},
        {kTiny, kHybrid, KvRetention::kPrefixBudget, 32, 248920, 30},
        {kTiny, kHybridNoInPlace, KvRetention::kNone, 0, 295512, 42},
        {kTiny, kHybridNoInPlace, KvRetention::kNone, 32, 246360, 30},
        {kTiny, kHybridNoInPlace, KvRetention::kAll, 0, 372312, 42},
        {kTiny, kHybridNoInPlace, KvRetention::kAll, 32, 306776, 30},
        {kTiny, kHybridNoInPlace, KvRetention::kPrefixBudget, 0, 344664, 42},
        {kTiny, kHybridNoInPlace, KvRetention::kPrefixBudget, 32, 279128, 30},
        {kTiny, kHybridNoPrealloc, KvRetention::kNone, 0, 333912, 42},
        {kTiny, kHybridNoPrealloc, KvRetention::kNone, 32, 276568, 30},
        {kTiny, kHybridNoPrealloc, KvRetention::kAll, 0, 410712, 42},
        {kTiny, kHybridNoPrealloc, KvRetention::kAll, 32, 336984, 30},
        {kTiny, kHybridNoPrealloc, KvRetention::kPrefixBudget, 0, 383064, 42},
        {kTiny, kHybridNoPrealloc, KvRetention::kPrefixBudget, 32, 309336, 30},
        {kTiny, kStdDrop, KvRetention::kNone, 0, 480600, 2},
        {kTiny, kStdDrop, KvRetention::kNone, 32, 378200, 2},
        {kSmall, kStd, KvRetention::kNone, 0, 1037400, 4},
        {kSmall, kStd, KvRetention::kNone, 32, 816216, 4},
        {kSmall, kStd, KvRetention::kAll, 0, 1037400, 4},
        {kSmall, kStd, KvRetention::kAll, 32, 816216, 4},
        {kSmall, kStd, KvRetention::kPrefixBudget, 0, 1037400, 4},
        {kSmall, kStd, KvRetention::kPrefixBudget, 32, 816216, 4},
        {kSmall, kChunked, KvRetention::kNone, 0, 295512, 7},
        {kSmall, kChunked, KvRetention::kNone, 32, 262744, 5},
        {kSmall, kChunked, KvRetention::kAll, 0, 295512, 7},
        {kSmall, kChunked, KvRetention::kAll, 32, 262744, 5},
        {kSmall, kChunked, KvRetention::kPrefixBudget, 0, 295512, 7},
        {kSmall, kChunked, KvRetention::kPrefixBudget, 32, 262744, 5},
        {kSmall, kHybrid, KvRetention::kNone, 0, 475224, 84},
        {kSmall, kHybrid, KvRetention::kNone, 32, 401496, 60},
        {kSmall, kHybrid, KvRetention::kAll, 0, 628824, 84},
        {kSmall, kHybrid, KvRetention::kAll, 32, 522328, 60},
        {kSmall, kHybrid, KvRetention::kPrefixBudget, 0, 573528, 84},
        {kSmall, kHybrid, KvRetention::kPrefixBudget, 32, 467032, 60},
        {kSmall, kHybridNoInPlace, KvRetention::kNone, 0, 552024, 84},
        {kSmall, kHybridNoInPlace, KvRetention::kNone, 32, 461912, 60},
        {kSmall, kHybridNoInPlace, KvRetention::kAll, 0, 705624, 84},
        {kSmall, kHybridNoInPlace, KvRetention::kAll, 32, 582744, 60},
        {kSmall, kHybridNoInPlace, KvRetention::kPrefixBudget, 0, 650328, 84},
        {kSmall, kHybridNoInPlace, KvRetention::kPrefixBudget, 32, 527448, 60},
        {kSmall, kHybridNoPrealloc, KvRetention::kNone, 0, 628824, 84},
        {kSmall, kHybridNoPrealloc, KvRetention::kNone, 32, 522328, 60},
        {kSmall, kHybridNoPrealloc, KvRetention::kAll, 0, 782424, 84},
        {kSmall, kHybridNoPrealloc, KvRetention::kAll, 32, 643160, 60},
        {kSmall, kHybridNoPrealloc, KvRetention::kPrefixBudget, 0, 727128, 84},
        {kSmall, kHybridNoPrealloc, KvRetention::kPrefixBudget, 32, 587864, 60},
        {kSmall, kStdDrop, KvRetention::kNone, 0, 922200, 4},
        {kSmall, kStdDrop, KvRetention::kNone, 32, 725592, 4},
};

PrefillOptions PinnedOptions(const PinnedCell& cell) {
  PrefillOptions options;
  options.mode = cell.pass == kStd || cell.pass == kStdDrop ? PrefillMode::kStandard
                 : cell.pass == kChunked                    ? PrefillMode::kChunked
                                                            : PrefillMode::kHybrid;
  options.chunk_size = 24;
  options.preallocate_outputs = cell.pass != kHybridNoPrealloc;
  options.in_place = cell.pass != kHybridNoInPlace && cell.pass != kHybridNoPrealloc;
  options.drop_kv_in_pass = cell.pass == kStdDrop;
  options.retention = cell.retention;
  options.prefix_budget_tokens = 96;
  return options;
}

TEST(BatchingParityTest, SoloPeaksAndPollsArePinned) {
  for (const bool small : {kTiny, kSmall}) {
    const ModelConfig config = small ? ModelConfig::Small() : ModelConfig::Tiny();
    LlamaModel model(config, 42);
    Rng rng(150);
    const std::vector<int32_t> tokens = RandomTokens(rng, 150, config.vocab_size);
    // The cached prefix lives in its own allocator so it never counts
    // toward a measured peak.
    TrackingAllocator prefix_alloc;
    KvCacheData prefix;
    prefix.n_tokens = 32;
    prefix.layers.resize(static_cast<size_t>(config.n_layers));
    for (auto& layer : prefix.layers) {
      layer.k = Tensor::Zeros(prefix_alloc, {32, config.kv_size()}, "p.k");
      layer.v = Tensor::Zeros(prefix_alloc, {32, config.kv_size()}, "p.v");
    }
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      model.SetThreadPool(&pool);
      for (const PinnedCell& cell : kPinnedCells) {
        if (cell.small != small) {
          continue;
        }
        SCOPED_TRACE(std::string(config.name) + " pass=" +
                     std::to_string(static_cast<int>(cell.pass)) + " retention=" +
                     std::to_string(static_cast<int>(cell.retention)) +
                     " n_cached=" + std::to_string(cell.n_cached) +
                     " threads=" + std::to_string(threads));
        PrefillOptions options = PinnedOptions(cell);
        int64_t polls = 0;
        options.abort_check = [&polls] {
          ++polls;
          return Status::Ok();
        };
        const KvCacheData* cached = cell.n_cached > 0 ? &prefix : nullptr;

        TrackingAllocator solo_arena;
        auto solo = model.Prefill(tokens, cached, options, solo_arena);
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        EXPECT_EQ(solo_arena.peak_bytes(), cell.peak_bytes);
        EXPECT_EQ(polls, cell.polls);

        polls = 0;
        const PrefillSequence seq{tokens, cached, cell.retention,
                                  options.prefix_budget_tokens};
        TrackingAllocator batch_arena;
        auto batched = model.PrefillBatch(std::span(&seq, 1), options, batch_arena);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        EXPECT_EQ(batch_arena.peak_bytes(), cell.peak_bytes);
        EXPECT_EQ(polls, cell.polls);
        EXPECT_TRUE(SameFloatBits(batched.value()[0].last_logits, solo.value().last_logits));
        EXPECT_TRUE(SameKvBits(batched.value()[0].kv, solo.value().kv));
      }
    }
  }
}

// ------------------------------- final-row layouts, pinned fingerprints
//
// A prefill-only pass reads one row per sequence: the final stacked row
// (row0 + n_new - 1), whose logits the LM head turns into the result. The
// batched-vs-solo comparisons above run the same row selection on both
// sides, so they cannot see a pass that keeps the wrong row; these
// fingerprints can. They were recorded from passes that computed every row
// of every layer, and cover final rows at each edge of the chunk grid:
// opening a chunk, closing one, two sharing one, a one-new-token sequence
// behind a cached prefix (two such, so two final rows are adjacent), and a
// chunk wider than the whole stack. Within a backend the bits are
// independent of prefill mode, hybrid ablation level, thread count and
// batch composition, so every pass below must hit the one fingerprint
// recorded per (backend, layout, retention): FNV-1a over each sequence's
// logits and retained KV, in order. A change that legitimately moves the
// bits regenerates them from the failure messages, which print the new
// value. PREFILLONLY_GOLDEN=off skips them, as it does the golden suites.

struct LayoutSeq {
  int64_t length;
  int64_t n_cached;
};

struct FinalRowLayout {
  const char* name;
  int64_t chunk_size;
  int n_seqs;
  LayoutSeq seqs[3];
  // Per retention: kAll, then kPrefixBudget (each sequence keeps positions
  // [0, length - 2)). Index 0 scalar, 1 avx2.
  uint64_t hash[2][2];
};

const FinalRowLayout kFinalRowLayouts[] = {
    // Rows 0-4 | 5-8: final rows 4 and 8 each open a chunk of 4.
    {"final row opens a chunk", 4, 2, {{5, 0}, {4, 0}},
     {{0x7d8d94499ef1f825ull, 0x0f76abd60ed268a0ull},
      {0xa4f254b6c26da430ull, 0xc6d5fbafd61e249eull}}},
    // Rows 0-7 | 8-11: final rows 7 and 11 each close a chunk of 4.
    {"final row closes a chunk", 4, 2, {{8, 0}, {4, 0}},
     {{0x23f591959b129526ull, 0x2a34bac89741fbbeull},
      {0x177d8b2583ee5f1dull, 0x83143779c975107dull}}},
    // Rows 0-2 | 3-6 | 7-12: final rows 2 and 6 share chunk [0, 8).
    {"two final rows share a chunk", 8, 3, {{3, 0}, {4, 0}, {6, 0}},
     {{0xa2ed98907eca2508ull, 0x57686e0d91cc912dull},
      {0xe558c02f935437ebull, 0xb98a6ec2b5ad9415ull}}},
    // Rows 0 | 1 | 2-11: two one-new-token sequences behind cached
    // prefixes, adjacent final rows 0 and 1.
    {"one new token behind a cached prefix", 4, 3, {{20, 19}, {13, 12}, {10, 0}},
     {{0xace7eb8c67e309fbull, 0xa3865b2352305289ull},
      {0x4366f0e531f332a3ull, 0x2257f1e101fffe0bull}}},
    // Rows 0-6 | 7-12 under chunk 64: one chunk, narrower than asked.
    {"chunk wider than the stack", 64, 2, {{7, 0}, {9, 3}},
     {{0xb8c9967c1b41aa04ull, 0x8a30d03537e1d4c0ull},
      {0x930af5d332ba85a0ull, 0x7f8d6eb5c5f9bb83ull}}},
};

bool GoldenDisabled() {
  const char* env = std::getenv("PREFILLONLY_GOLDEN");
  return env != nullptr && std::string_view(env) == "off";
}

uint64_t Fingerprint(const std::vector<PrefillResult>& results) {
  uint64_t h = kFnvOffset;
  for (const PrefillResult& r : results) {
    h = Fnv1a64(r.last_logits.data(), r.last_logits.size() * sizeof(float), h);
    h = Fnv1a64(&r.kv.n_tokens, sizeof(r.kv.n_tokens), h);
    for (const LayerKv& layer : r.kv.layers) {
      h = Fnv1a64(layer.k.data(), layer.k.bytes(), h);
      h = Fnv1a64(layer.v.data(), layer.v.bytes(), h);
    }
  }
  return h;
}

TEST(BatchingParityTest, FinalRowLayoutsHoldPinnedFingerprints) {
  if (GoldenDisabled()) {
    GTEST_SKIP() << "PREFILLONLY_GOLDEN=off: fingerprints tied to another toolchain";
  }
  const ModelConfig config = ModelConfig::Small();
  for (const KernelBackend backend : BackendsUnderTest()) {
    const int b = backend == KernelBackend::kAvx2 ? 1 : 0;
    LlamaModel model(config, /*seed=*/42, backend);
    TrackingAllocator arena;
    for (const FinalRowLayout& layout : kFinalRowLayouts) {
      // Tokens and cached prefixes, made once: a prefix is the kAll KV of a
      // solo pass over the sequence's first n_cached tokens.
      std::vector<std::vector<int32_t>> tokens;
      std::vector<KvCacheData> prefixes(static_cast<size_t>(layout.n_seqs));
      for (int i = 0; i < layout.n_seqs; ++i) {
        const LayoutSeq& seq = layout.seqs[i];
        Rng rng(4000 + 10 * static_cast<uint64_t>(seq.length) + static_cast<uint64_t>(i));
        tokens.push_back(RandomTokens(rng, seq.length, config.vocab_size));
        if (seq.n_cached > 0) {
          PrefillOptions keep;
          keep.retention = KvRetention::kAll;
          auto head = model.Prefill(
              std::span<const int32_t>(tokens.back()).first(static_cast<size_t>(seq.n_cached)),
              nullptr, keep, arena);
          ASSERT_TRUE(head.ok()) << head.status().ToString();
          prefixes[static_cast<size_t>(i)] = head.take().kv;
        }
      }
      for (const int r : {0, 1}) {
        std::vector<PrefillSequence> sequences;
        for (int i = 0; i < layout.n_seqs; ++i) {
          const KvCacheData& prefix = prefixes[static_cast<size_t>(i)];
          sequences.push_back({tokens[static_cast<size_t>(i)],
                               prefix.empty() ? nullptr : &prefix,
                               r == 0 ? KvRetention::kAll : KvRetention::kPrefixBudget,
                               layout.seqs[i].length - 2});
        }
        const uint64_t want = layout.hash[r][b];
        for (const int threads : {1, 4}) {
          ThreadPool pool(threads);
          model.SetThreadPool(&pool);
          for (const PinnedPass pass : {kStd, kChunked, kHybrid, kHybridNoInPlace,
                                        kHybridNoPrealloc}) {
            PinnedCell cell{};
            cell.pass = pass;
            PrefillOptions options = PinnedOptions(cell);
            options.chunk_size = layout.chunk_size;
            auto batched = model.PrefillBatch(sequences, options, arena);
            ASSERT_TRUE(batched.ok()) << batched.status().ToString();
            const uint64_t got = Fingerprint(batched.value());
            EXPECT_EQ(got, want)
                << KernelBackendName(backend) << " \"" << layout.name << "\" "
                << (r == 0 ? "kAll" : "kPrefixBudget") << " pass "
                << static_cast<int>(pass) << " threads " << threads
                << ": now 0x" << std::hex << got << "ull";
          }
          model.SetThreadPool(nullptr);
        }
      }
    }
  }
}

// ------------------------------------------------- engine-layer parity

EngineOptions BatchEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.chunk_size = 32;
  options.num_threads = 4;
  return options;
}

ScoringRequest YesNoRequest(std::vector<int32_t> tokens, int64_t user) {
  ScoringRequest request;
  request.user_id = user;
  request.tokens = std::move(tokens);
  request.allowed_tokens = {10, 20};
  return request;
}

TEST(BatchingEngineTest, RunPendingBatchesMatchSerialReferenceBitwise) {
  // 8 same-length-bucket requests (lengths 33..47 all land in bucket 5), so
  // a max_batch_size = 4 drain forms two full batches.
  std::vector<ScoringRequest> requests;
  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    requests.push_back(YesNoRequest(RandomTokens(rng, 33 + 2 * i), i));
  }

  // Serial single-thread solo reference.
  std::vector<std::vector<TokenProbability>> expected;
  {
    EngineOptions options = BatchEngineOptions();
    options.num_threads = 1;
    Engine engine(options);
    for (const auto& request : requests) {
      auto response = engine.ScoreSync(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      expected.push_back(response.value().probabilities);
    }
  }

  for (int max_batch : {1, 2, 4}) {
    EngineOptions options = BatchEngineOptions();
    options.max_batch_size = max_batch;
    Engine engine(options);
    for (const auto& request : requests) {
      ASSERT_TRUE(engine.Submit(request).ok());
    }
    auto responses = engine.RunPending();
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    ASSERT_EQ(responses.value().size(), requests.size());
    for (const ScoringResponse& response : responses.value()) {
      const auto user = static_cast<size_t>(response.user_id);
      ASSERT_LT(user, expected.size());
      ASSERT_EQ(response.probabilities.size(), expected[user].size());
      for (size_t p = 0; p < expected[user].size(); ++p) {
        EXPECT_EQ(response.probabilities[p].token, expected[user][p].token);
        EXPECT_EQ(std::memcmp(&response.probabilities[p].probability,
                              &expected[user][p].probability, sizeof(double)),
                  0)
            << "user " << user << " prob " << p << " at max_batch " << max_batch;
      }
      EXPECT_LE(response.batch_size, max_batch);
      EXPECT_GE(response.batch_size, 1);
    }

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.completed, 8);
    EXPECT_EQ(stats.batched_requests, 8);
    EXPECT_LE(stats.peak_batch_size, max_batch);
    if (max_batch == 1) {
      EXPECT_EQ(stats.batches_dispatched, 8);  // exact legacy: all solo
    } else if (max_batch == 4) {
      // Homogeneous backlog, deep queue: the drain forms full batches.
      EXPECT_EQ(stats.batches_dispatched, 2);
      EXPECT_EQ(stats.peak_batch_size, 4);
    }
  }
}

TEST(BatchingEngineTest, PrefixCacheHitsInsideBatchesKeepBits) {
  // Warm a shared 32-token prefix, then drain sibling requests both solo and
  // batched: block-aligned cache hits must not change any probability bit,
  // and the batch path must publish KV the same way the solo path does.
  Rng rng(9);
  const std::vector<int32_t> profile = RandomTokens(rng, 32);
  auto sibling = [&](int32_t tail, int64_t user) {
    std::vector<int32_t> tokens = profile;
    tokens.push_back(tail);
    tokens.push_back(tail + 1);
    return YesNoRequest(std::move(tokens), user);
  };

  std::vector<std::vector<TokenProbability>> expected;
  {
    EngineOptions options = BatchEngineOptions();
    options.num_threads = 1;
    Engine engine(options);
    for (int i = 0; i < 4; ++i) {
      auto response = engine.ScoreSync(sibling(static_cast<int32_t>(i), i));
      ASSERT_TRUE(response.ok());
      expected.push_back(response.value().probabilities);
    }
  }

  EngineOptions options = BatchEngineOptions();
  options.max_batch_size = 4;
  Engine engine(options);
  // Warm pass, then a batched drain of the four siblings.
  ASSERT_TRUE(engine.ScoreSync(sibling(0, 0)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Submit(sibling(static_cast<int32_t>(i), i)).ok());
  }
  auto responses = engine.RunPending();
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses.value().size(), 4u);
  for (const ScoringResponse& response : responses.value()) {
    const auto user = static_cast<size_t>(response.user_id);
    for (size_t p = 0; p < expected[user].size(); ++p) {
      EXPECT_EQ(std::memcmp(&response.probabilities[p].probability,
                            &expected[user][p].probability, sizeof(double)),
                0)
          << "user " << user;
    }
    // The warmed 32-token prefix is two 16-token blocks; every sibling
    // should reuse it.
    EXPECT_EQ(response.n_cached, 32);
  }
}

TEST(BatchingEngineTest, PoolContentionFallsBackToSoloNotFailure) {
  // A block pool of 4 blocks and two 80-token batchmates that each want all
  // of it: the second member's acquisition fails while the first holds its
  // pins. Co-batching must never fail a request that succeeds alone — the
  // contended member retries solo on the same lane after the batch
  // releases, and both complete with reference bits.
  Rng rng(31);
  std::vector<ScoringRequest> requests{YesNoRequest(RandomTokens(rng, 80), 0),
                                       YesNoRequest(RandomTokens(rng, 80), 1)};
  std::vector<std::vector<TokenProbability>> expected;
  {
    EngineOptions options = BatchEngineOptions();
    options.num_threads = 1;
    options.cache_budget_tokens = 64;  // 4 blocks of 16
    Engine engine(options);
    for (const auto& request : requests) {
      auto response = engine.ScoreSync(request);
      ASSERT_TRUE(response.ok());
      expected.push_back(response.value().probabilities);
    }
  }

  EngineOptions options = BatchEngineOptions();
  options.cache_budget_tokens = 64;
  options.max_batch_size = 2;
  Engine engine(options);
  for (const auto& request : requests) {
    ASSERT_TRUE(engine.Submit(request).ok());
  }
  auto responses = engine.RunPending();
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses.value().size(), 2u);
  for (const ScoringResponse& response : responses.value()) {
    const auto user = static_cast<size_t>(response.user_id);
    for (size_t p = 0; p < expected[user].size(); ++p) {
      EXPECT_EQ(std::memcmp(&response.probabilities[p].probability,
                            &expected[user][p].probability, sizeof(double)),
                0)
          << "user " << user;
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.failed, 0);
  // One dispatch decision carried both requests even though they executed
  // solo-after-contention.
  EXPECT_EQ(stats.batches_dispatched, 1);
  EXPECT_EQ(stats.batched_requests, 2);
}

// ------------------------------------- length-aware packing (ISSUE 9)

// Mixed-length compositions through the packed (first-fit) engine, compared
// bitwise against a single-thread solo reference. Lengths span several
// power-of-two LengthBuckets on purpose: under the legacy bucket rule these
// requests could never co-batch, so `batch_size == n` proves cross-bucket
// welding actually happened.
void RunMixedLengthPacked(KernelBackend backend, int threads, PrefillMode mode,
                          uint64_t seed, int rounds) {
  EngineOptions ref_options = BatchEngineOptions();
  ref_options.kernel_backend = backend;
  ref_options.mode = mode;
  ref_options.num_threads = 1;
  Engine reference(ref_options);

  EngineOptions packed_options = BatchEngineOptions();
  packed_options.kernel_backend = backend;
  packed_options.mode = mode;
  packed_options.num_threads = threads;
  packed_options.max_batch_size = 6;
  Engine packed(packed_options);
  ASSERT_EQ(packed.options().batch_packing, BatchPacking::kFirstFit);

  Rng rng(seed);
  int64_t user = 0;
  for (int round = 0; round < rounds; ++round) {
    const int n = 2 + static_cast<int>(rng.NextBounded(5));  // 2..6
    std::vector<ScoringRequest> requests;
    for (int i = 0; i < n; ++i) {
      const int len = 1 + static_cast<int>(rng.NextBounded(96));
      requests.push_back(YesNoRequest(RandomTokens(rng, len), user++));
    }

    std::map<int64_t, std::vector<TokenProbability>> expected;
    for (const auto& request : requests) {
      auto solo = reference.ScoreSync(request);
      ASSERT_TRUE(solo.ok()) << solo.status().ToString();
      expected[request.user_id] = solo.value().probabilities;
    }

    const EngineStats before = packed.stats();
    for (const auto& request : requests) {
      ASSERT_TRUE(packed.Submit(request).ok());
    }
    auto responses = packed.RunPending();
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    ASSERT_EQ(responses.value().size(), requests.size());
    for (const ScoringResponse& response : responses.value()) {
      const auto& want = expected.at(response.user_id);
      ASSERT_EQ(response.probabilities.size(), want.size());
      for (size_t p = 0; p < want.size(); ++p) {
        EXPECT_EQ(response.probabilities[p].token, want[p].token);
        EXPECT_EQ(std::memcmp(&response.probabilities[p].probability,
                              &want[p].probability, sizeof(double)),
                  0)
            << "user " << response.user_id << " prob " << p << " round "
            << round << " threads " << threads << " mode "
            << static_cast<int>(mode);
      }
      // Every length landed in ONE batch: mixed lengths co-batched.
      EXPECT_EQ(response.batch_size, n) << "round " << round;
    }
    const EngineStats after = packed.stats();
    EXPECT_EQ(after.batches_dispatched - before.batches_dispatched, 1);
    EXPECT_EQ(after.batched_requests - before.batched_requests, n);
    EXPECT_EQ(after.packing_skips - before.packing_skips, 0);
  }
}

TEST(BatchingEngineTest, MixedLengthPackedBatchesMatchSoloBitwise) {
  // Tier-1 slice of the matrix; the full sweep lives in the slow suite.
  for (KernelBackend backend : BackendsUnderTest()) {
    for (PrefillMode mode : kAllModes) {
      RunMixedLengthPacked(backend, /*threads=*/2, mode,
                           /*seed=*/9100 + static_cast<uint64_t>(mode),
                           /*rounds=*/2);
    }
  }
}

TEST(BatchingEngineTest, BudgetSkipStillDispatchesTheSmallerRider) {
  // Regression for the first-overflow `break` bug: an oversized rider must
  // be skipped — not truncate the tail — so a smaller rider behind it still
  // co-batches with the seed. The budget is sized from the engine's own
  // admission cost model: seed(8) + rider(16) fits, seed(8) + rider(24)
  // does not.
  const EngineOptions base = BatchEngineOptions();
  const BatchBudget projector =
      MakeBatchBudget(base.model, base.mode, /*activation_budget_bytes=*/0,
                      base.block_size);
  Rng rng(7);
  std::vector<ScoringRequest> requests{YesNoRequest(RandomTokens(rng, 8), 0),
                                       YesNoRequest(RandomTokens(rng, 16), 1),
                                       YesNoRequest(RandomTokens(rng, 24), 2)};

  std::map<int64_t, std::vector<TokenProbability>> expected;
  {
    EngineOptions ref = base;
    ref.num_threads = 1;
    Engine reference(ref);
    for (const auto& request : requests) {
      auto solo = reference.ScoreSync(request);
      ASSERT_TRUE(solo.ok()) << solo.status().ToString();
      expected[request.user_id] = solo.value().probabilities;
    }
  }

  EngineOptions options = base;
  options.max_batch_size = 3;
  options.activation_budget_bytes =
      projector.SequenceBytes(8, 0) + projector.SequenceBytes(16, 0);
  Engine engine(options);
  for (const auto& request : requests) {
    ASSERT_TRUE(engine.Submit(request).ok());
  }
  auto responses = engine.RunPending();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses.value().size(), 3u);
  for (const ScoringResponse& response : responses.value()) {
    const auto& want = expected.at(response.user_id);
    ASSERT_EQ(response.probabilities.size(), want.size());
    for (size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(std::memcmp(&response.probabilities[p].probability,
                            &want[p].probability, sizeof(double)),
                0)
          << "user " << response.user_id;
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.failed, 0);
  // Seed(8) + rider(16) in batch one, the skipped 24-token request seeds
  // batch two. Before the fix the 16-token rider was dropped too and three
  // batches dispatched.
  EXPECT_EQ(stats.batches_dispatched, 2);
  EXPECT_EQ(stats.batched_requests, 3);
  EXPECT_EQ(stats.peak_batch_size, 2);
  EXPECT_EQ(stats.packing_skips, 1);
}

TEST(BatchingEngineTest, PackedAdmissionProjectionNeverOptimistic) {
  // The scheduler admits batches against projected bytes; the lane arena
  // measures actual bytes. Admission is only sound if projected >= actual
  // for every composition, so sweep random cold compositions per prefill
  // mode and compare against the engine's tracked peak.
  Rng rng(2024);
  for (PrefillMode mode : kAllModes) {
    const BatchBudget projector = MakeBatchBudget(
        ModelConfig::Tiny(), mode, /*activation_budget_bytes=*/0,
        /*block_tokens=*/16);
    for (int round = 0; round < 6; ++round) {
      EngineOptions options = BatchEngineOptions();
      options.mode = mode;
      options.cache_budget_tokens = 4096;
      options.max_batch_size = 8;
      options.num_threads = 2;
      Engine engine(options);

      const int n = 1 + static_cast<int>(rng.NextBounded(6));
      size_t projected = 0;
      for (int i = 0; i < n; ++i) {
        const int len = 1 + static_cast<int>(rng.NextBounded(96));
        ASSERT_TRUE(engine.Submit(YesNoRequest(RandomTokens(rng, len), i)).ok());
        projected += projector.SequenceBytes(len, /*n_cached_now=*/0);
      }
      auto responses = engine.RunPending();
      ASSERT_TRUE(responses.ok()) << responses.status().ToString();
      ASSERT_EQ(responses.value().size(), static_cast<size_t>(n));

      const EngineStats stats = engine.stats();
      EXPECT_EQ(stats.batches_dispatched, 1);
      EXPECT_LE(stats.peak_activation_bytes, projected)
          << "mode " << static_cast<int>(mode) << " round " << round << " n "
          << n << ": projection must never be optimistic";
    }
  }
}

TEST(BatchingEngineTest, PackedProjectionCoversWarmedPrefixes) {
  // Same soundness bound with prefix hits in play: cached tokens are charged
  // at the (cheaper) retained-KV rate, and the projection's block-aligned
  // rounding of n_cached must stay conservative against what the engine
  // actually assembles.
  for (PrefillMode mode : kAllModes) {
    const BatchBudget projector = MakeBatchBudget(
        ModelConfig::Tiny(), mode, /*activation_budget_bytes=*/0,
        /*block_tokens=*/16);
    EngineOptions options = BatchEngineOptions();
    options.mode = mode;
    options.cache_budget_tokens = 4096;
    options.max_batch_size = 8;
    Engine engine(options);

    Rng rng(77 + static_cast<uint64_t>(mode));
    const std::vector<int32_t> prefix = RandomTokens(rng, 48);
    std::vector<int32_t> warm = prefix;
    for (int32_t tail : RandomTokens(rng, 16)) warm.push_back(tail);
    ASSERT_TRUE(engine.ScoreSync(YesNoRequest(warm, 100)).ok());
    const size_t projected_warm = projector.SequenceBytes(64, 0);

    size_t projected_batch = 0;
    std::vector<int> lengths;
    for (int i = 0; i < 3; ++i) {
      std::vector<int32_t> tokens = prefix;
      const int tail = 1 + static_cast<int>(rng.NextBounded(32));
      for (int32_t t : RandomTokens(rng, tail)) tokens.push_back(t);
      lengths.push_back(static_cast<int>(tokens.size()));
      ASSERT_TRUE(engine.Submit(YesNoRequest(std::move(tokens), i)).ok());
    }
    auto responses = engine.RunPending();
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    ASSERT_EQ(responses.value().size(), 3u);
    for (size_t i = 0; i < responses.value().size(); ++i) {
      const ScoringResponse& response = responses.value()[i];
      EXPECT_EQ(response.n_cached, 48) << "mode " << static_cast<int>(mode);
      const auto user = static_cast<size_t>(response.user_id);
      projected_batch +=
          projector.SequenceBytes(lengths[user], response.n_cached);
    }

    const EngineStats stats = engine.stats();
    EXPECT_LE(stats.peak_activation_bytes,
              std::max(projected_warm, projected_batch))
        << "mode " << static_cast<int>(mode);
  }
}

// ---------------------------------------------- randomized slow sweep
//
// The full composition sweep: more rounds, larger batches, all cells. ~a few
// seconds of Tiny-model prefills; labeled `slow` in ctest so fast local
// iterations can `ctest -LE slow`.

TEST(BatchingSweepSlowTest, RandomizedCompositionSweep) {
  for (KernelBackend backend : BackendsUnderTest()) {
    for (int threads : {1, 2, 8}) {
      for (PrefillMode mode : kAllModes) {
        RunCompositions(backend, threads, mode,
                        /*seed=*/5000 + static_cast<uint64_t>(threads) * 31 +
                            static_cast<uint64_t>(mode),
                        /*rounds=*/5, /*max_batch=*/6, /*max_len=*/72);
      }
    }
  }
}

TEST(BatchingSweepSlowTest, MixedLengthPackedSweep) {
  // Full ISSUE 9 matrix: engine-level first-fit packing of mixed-length
  // compositions, bitwise vs solo, across backends x threads x modes.
  for (KernelBackend backend : BackendsUnderTest()) {
    for (int threads : {1, 2, 8}) {
      for (PrefillMode mode : kAllModes) {
        RunMixedLengthPacked(backend, threads, mode,
                             /*seed=*/9500 +
                                 static_cast<uint64_t>(threads) * 17 +
                                 static_cast<uint64_t>(mode),
                             /*rounds=*/3);
      }
    }
  }
}

}  // namespace
}  // namespace prefillonly
