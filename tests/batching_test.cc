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
#include <iterator>
#include <map>
#include <span>
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
#include "tests/engine_backlog.h"

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
  // kNoPreallocate is the §4.3 ablation path of the hybrid pass; the
  // batched implementation mirrors it and must stay bit-exact too.
  for (KernelBackend backend : BackendsUnderTest()) {
    LlamaModel model(ModelConfig::Tiny(), 42, backend);
    ThreadPool pool(2);
    model.SetThreadPool(&pool);
    TrackingAllocator arena;
    Rng rng(77);
    for (const PrefillAblation ablation :
         {PrefillAblation::kNone, PrefillAblation::kNoPreallocate}) {
      PrefillOptions options = ModeOptions(PrefillMode::kHybrid);
      options.ablation = ablation;
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
            << "ablation=" << static_cast<int>(ablation) << " member " << i;
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

  // kDropKvPerLayer is valid in a batch, but not next to a sequence that
  // keeps its KV.
  const std::vector<int32_t> tokens{1, 2, 3};
  std::vector<PrefillSequence> two(2);
  two[0].tokens = tokens;
  two[1].tokens = tokens;
  two[1].retention = KvRetention::kAll;
  PrefillOptions drop = options;
  drop.mode = PrefillMode::kStandard;
  drop.ablation = PrefillAblation::kDropKvPerLayer;
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
// 24. Prefill must still read them at every thread count. Prefill builds a
// one-sequence PrefillBatch itself, so each cell runs once; one cell per
// model also runs PrefillBatch directly, for the same peak, polls and bits.
//
// `timeline` pins the order of the pass's tracked allocations and frees:
// FNV-1a over each event's tag and signed byte delta (TimelineFingerprint),
// up to the return of Prefill. A peak can hold while the schedule under it
// moves; this column sees the move. Failures print the new value.

enum class PinnedPass { kStd, kChunked, kHybrid, kHybridNoInPlace, kHybridNoPrealloc, kStdDrop };

struct PinnedCell {
  bool small;  // ModelConfig::Small() instead of Tiny()
  PinnedPass pass;
  KvRetention retention;  // kPrefixBudget keeps positions [0, 96)
  int64_t n_cached;
  size_t peak_bytes;
  int64_t polls;
  uint64_t timeline;
};

constexpr bool kTiny = false;
constexpr bool kSmall = true;
using enum PinnedPass;

constexpr PinnedCell kPinnedCells[] = {
        {kTiny, kStd, KvRetention::kNone, 0, 519000, 2, 0xc4322ebecd0fca68ull},
        {kTiny, kStd, KvRetention::kNone, 32, 408408, 2, 0x2c749e8804503af8ull},
        {kTiny, kStd, KvRetention::kAll, 0, 519000, 2, 0xa64edd12b81326d0ull},
        {kTiny, kStd, KvRetention::kAll, 32, 408408, 2, 0x29679ad3c2184560ull},
        {kTiny, kStd, KvRetention::kPrefixBudget, 0, 519000, 2, 0xbfe04d3d80dbf938ull},
        {kTiny, kStd, KvRetention::kPrefixBudget, 32, 408408, 2, 0xdc1f105019e560c8ull},
        {kTiny, kChunked, KvRetention::kNone, 0, 148056, 7, 0x28e3caaed9b0492cull},
        {kTiny, kChunked, KvRetention::kNone, 32, 131672, 5, 0xe7c1771885907ee8ull},
        {kTiny, kChunked, KvRetention::kAll, 0, 148056, 7, 0x7223c438387abba4ull},
        {kTiny, kChunked, KvRetention::kAll, 32, 131672, 5, 0xdc432c04bfe881c0ull},
        {kTiny, kChunked, KvRetention::kPrefixBudget, 0, 148056, 7, 0xaca84e25c8491ec4ull},
        {kTiny, kChunked, KvRetention::kPrefixBudget, 32, 131672, 5, 0xd1fe9958d8da3310ull},
        {kTiny, kHybrid, KvRetention::kNone, 0, 257112, 42, 0x98b08659c998485aull},
        {kTiny, kHybrid, KvRetention::kNone, 32, 216152, 30, 0xd77930f11b9c07baull},
        {kTiny, kHybrid, KvRetention::kAll, 0, 333912, 42, 0x1127ea18d8d709beull},
        {kTiny, kHybrid, KvRetention::kAll, 32, 276568, 30, 0x915149a97be457eull},
        {kTiny, kHybrid, KvRetention::kPrefixBudget, 0, 306264, 42, 0x1f63a28ab128a90aull},
        {kTiny, kHybrid, KvRetention::kPrefixBudget, 32, 248920, 30, 0xc8a76b5e020b08eaull},
        {kTiny, kHybridNoInPlace, KvRetention::kNone, 0, 295512, 42, 0x296a473c925e5fbcull},
        {kTiny, kHybridNoInPlace, KvRetention::kNone, 32, 246360, 30, 0xe8f97e68fa61067cull},
        {kTiny, kHybridNoInPlace, KvRetention::kAll, 0, 372312, 42, 0xf1902ca8cf570538ull},
        {kTiny, kHybridNoInPlace, KvRetention::kAll, 32, 306776, 30, 0xffda5a6bf35dd518ull},
        {kTiny, kHybridNoInPlace, KvRetention::kPrefixBudget, 0, 344664, 42, 0xf26c0ec78d591f8cull},
        {kTiny, kHybridNoInPlace, KvRetention::kPrefixBudget, 32, 279128, 30, 0xafa40ece23f8558cull},
        {kTiny, kHybridNoPrealloc, KvRetention::kNone, 0, 333912, 42, 0x2b061baabd60c638ull},
        {kTiny, kHybridNoPrealloc, KvRetention::kNone, 32, 276568, 30, 0x7bdf3b2fbd80f1fcull},
        {kTiny, kHybridNoPrealloc, KvRetention::kAll, 0, 410712, 42, 0xc848459212353eccull},
        {kTiny, kHybridNoPrealloc, KvRetention::kAll, 32, 336984, 30, 0x3a17bc6f3a44ef00ull},
        {kTiny, kHybridNoPrealloc, KvRetention::kPrefixBudget, 0, 383064, 42, 0x24aec6420a82ff68ull},
        {kTiny, kHybridNoPrealloc, KvRetention::kPrefixBudget, 32, 309336, 30, 0xe337b172b54752cull},
        {kTiny, kStdDrop, KvRetention::kNone, 0, 480600, 2, 0x12a6a55dc05aae58ull},
        {kTiny, kStdDrop, KvRetention::kNone, 32, 378200, 2, 0xb59e2533cc646ee0ull},
        {kSmall, kStd, KvRetention::kNone, 0, 1037400, 4, 0x34e3a0a45d633c04ull},
        {kSmall, kStd, KvRetention::kNone, 32, 816216, 4, 0xb5bf5d6420a30a28ull},
        {kSmall, kStd, KvRetention::kAll, 0, 1037400, 4, 0x8f466c3d9bc21a34ull},
        {kSmall, kStd, KvRetention::kAll, 32, 816216, 4, 0xa14a1742aa259cd8ull},
        {kSmall, kStd, KvRetention::kPrefixBudget, 0, 1037400, 4, 0x5c4a677eaaf0b3b4ull},
        {kSmall, kStd, KvRetention::kPrefixBudget, 32, 816216, 4, 0xce363a6c2f456258ull},
        {kSmall, kChunked, KvRetention::kNone, 0, 295512, 7, 0x5ad93c50c4aeed68ull},
        {kSmall, kChunked, KvRetention::kNone, 32, 262744, 5, 0x4cd752452ba52cb4ull},
        {kSmall, kChunked, KvRetention::kAll, 0, 295512, 7, 0x92665d90ee2f9c78ull},
        {kSmall, kChunked, KvRetention::kAll, 32, 262744, 5, 0x66919d6062bdc8e4ull},
        {kSmall, kChunked, KvRetention::kPrefixBudget, 0, 295512, 7, 0x730d1a7369c76478ull},
        {kSmall, kChunked, KvRetention::kPrefixBudget, 32, 262744, 5, 0xeff32b1c88e7e864ull},
        {kSmall, kHybrid, KvRetention::kNone, 0, 475224, 84, 0x6b1287aac8416708ull},
        {kSmall, kHybrid, KvRetention::kNone, 32, 401496, 60, 0xa139ecfc9f477a8eull},
        {kSmall, kHybrid, KvRetention::kAll, 0, 628824, 84, 0x2267ee5c35726d20ull},
        {kSmall, kHybrid, KvRetention::kAll, 32, 522328, 60, 0x2f504e3db3bc0e36ull},
        {kSmall, kHybrid, KvRetention::kPrefixBudget, 0, 573528, 84, 0xbcb29234446bf268ull},
        {kSmall, kHybrid, KvRetention::kPrefixBudget, 32, 467032, 60, 0xddbed3df0561adbeull},
        {kSmall, kHybridNoInPlace, KvRetention::kNone, 0, 552024, 84, 0x4e208cea68c37222ull},
        {kSmall, kHybridNoInPlace, KvRetention::kNone, 32, 461912, 60, 0x8b365ee8d439db8cull},
        {kSmall, kHybridNoInPlace, KvRetention::kAll, 0, 705624, 84, 0x49fdee0d732a192aull},
        {kSmall, kHybridNoInPlace, KvRetention::kAll, 32, 582744, 60, 0x9c93791672416244ull},
        {kSmall, kHybridNoInPlace, KvRetention::kPrefixBudget, 0, 650328, 84, 0x14287bbc240ee42ull},
        {kSmall, kHybridNoInPlace, KvRetention::kPrefixBudget, 32, 527448, 60, 0xd8f9939da3756b1cull},
        {kSmall, kHybridNoPrealloc, KvRetention::kNone, 0, 628824, 84, 0x29e04c09d28dad78ull},
        {kSmall, kHybridNoPrealloc, KvRetention::kNone, 32, 522328, 60, 0x7c35789f32690db8ull},
        {kSmall, kHybridNoPrealloc, KvRetention::kAll, 0, 782424, 84, 0x412a73806c22f130ull},
        {kSmall, kHybridNoPrealloc, KvRetention::kAll, 32, 643160, 60, 0x47264d0be1664700ull},
        {kSmall, kHybridNoPrealloc, KvRetention::kPrefixBudget, 0, 727128, 84, 0x8c8aaea427189dd8ull},
        {kSmall, kHybridNoPrealloc, KvRetention::kPrefixBudget, 32, 587864, 60, 0xf930fbbdd4826b28ull},
        {kSmall, kStdDrop, KvRetention::kNone, 0, 922200, 4, 0x73cb6f2bbcdf601cull},
        {kSmall, kStdDrop, KvRetention::kNone, 32, 725592, 4, 0x402e641eabe70f70ull},
};

constexpr PinnedPass kAllPasses[] = {kStd,           kChunked,         kHybrid,
                                     kHybridNoInPlace, kHybridNoPrealloc, kStdDrop};

PrefillOptions PassOptions(PinnedPass pass, int64_t chunk_size) {
  PrefillOptions options;
  options.mode = pass == kStd || pass == kStdDrop ? PrefillMode::kStandard
                 : pass == kChunked               ? PrefillMode::kChunked
                                                  : PrefillMode::kHybrid;
  options.chunk_size = chunk_size;
  options.ablation = pass == kHybridNoInPlace    ? PrefillAblation::kNoInPlace
                     : pass == kHybridNoPrealloc ? PrefillAblation::kNoPreallocate
                     : pass == kStdDrop          ? PrefillAblation::kDropKvPerLayer
                                                 : PrefillAblation::kNone;
  return options;
}

uint64_t TimelineFingerprint(const std::vector<TrackingAllocator::Event>& timeline) {
  uint64_t h = kFnvOffset;
  for (const TrackingAllocator::Event& event : timeline) {
    h = Fnv1a64(event.tag.data(), event.tag.size(), h);
    h = Fnv1a64(&event.delta_bytes, sizeof(event.delta_bytes), h);
  }
  return h;
}

PrefillOptions PinnedOptions(const PinnedCell& cell) {
  PrefillOptions options = PassOptions(cell.pass, /*chunk_size=*/24);
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
        solo_arena.EnableTimeline(true);
        auto solo = model.Prefill(tokens, cached, options, solo_arena);
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        EXPECT_EQ(solo_arena.peak_bytes(), cell.peak_bytes);
        EXPECT_EQ(polls, cell.polls);
        const uint64_t timeline = TimelineFingerprint(solo_arena.timeline());
        EXPECT_EQ(timeline, cell.timeline) << "now 0x" << std::hex << timeline << "ull";

        if (threads != 4 || cell.pass != kHybrid || cell.retention != KvRetention::kAll ||
            cell.n_cached == 0) {
          continue;
        }
        polls = 0;
        const PrefillSequence seq{tokens, cached, cell.retention,
                                  options.prefix_budget_tokens};
        TrackingAllocator batch_arena;
        batch_arena.EnableTimeline(true);
        auto batched = model.PrefillBatch(std::span(&seq, 1), options, batch_arena);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        EXPECT_EQ(batch_arena.peak_bytes(), cell.peak_bytes);
        EXPECT_EQ(polls, cell.polls);
        EXPECT_EQ(TimelineFingerprint(batch_arena.timeline()), cell.timeline);
        EXPECT_TRUE(SameFloatBits(batched.value()[0].last_logits, solo.value().last_logits));
        EXPECT_TRUE(SameKvBits(batched.value()[0].kv, solo.value().kv));
      }
    }
  }
}

// ------------------------------------------------- paged prefix reads
//
// The engine hands a pass its cached prefix as a view of the cache blocks,
// wherever they sit. The same rows paged into separately allocated blocks
// must give the bits of one contiguous prefix, for every pass and Fig. 10
// ablation, solo and batched next to members of other kinds; and the
// tracked peak must not move, since the prefix is outside the arena either
// way.

// Every whole block of `prefix`, `block_rows` rows each, as separate
// allocations made last block first.
std::vector<KvBlock> PageBlocks(const KvCacheData& prefix, int64_t block_rows,
                                TrackingAllocator& alloc) {
  std::vector<KvBlock> blocks(static_cast<size_t>(prefix.n_tokens / block_rows));
  for (auto b = static_cast<int64_t>(blocks.size()) - 1; b >= 0; --b) {
    blocks[static_cast<size_t>(b)] = CopyBlockFrom(prefix, 0, b, block_rows, alloc);
  }
  return blocks;
}

TEST(BatchingParityTest, PagedPrefixMatchesContiguousBitwise) {
  const ModelConfig config = ModelConfig::Tiny();
  LlamaModel model(config, 42);
  Rng rng(29);
  // Member A sits behind a paged prefix; in the batch, B is cold and C sits
  // behind a contiguous one.
  const std::vector<int32_t> a_tokens = RandomTokens(rng, 90);
  const std::vector<int32_t> b_tokens = RandomTokens(rng, 37);
  const std::vector<int32_t> c_tokens = RandomTokens(rng, 50);
  TrackingAllocator prefix_alloc;
  // The KV of tokens [0, n), retained by a pass as the engine retains it.
  const auto prefix_of = [&](const std::vector<int32_t>& tokens, int64_t n) {
    PrefillOptions warm;
    warm.retention = KvRetention::kPrefixBudget;
    warm.prefix_budget_tokens = n;
    auto pass = model.Prefill(std::span(tokens).first(static_cast<size_t>(n + 1)), nullptr,
                              warm, prefix_alloc);
    EXPECT_TRUE(pass.ok()) << pass.status().ToString();
    return std::move(pass.value().kv);
  };
  const KvCacheData a_rows = prefix_of(a_tokens, 64);
  const KvCacheData c_prefix = prefix_of(c_tokens, 20);

  for (const int64_t block_rows : {1, 7, 16, 32}) {
    const std::vector<KvBlock> blocks = PageBlocks(a_rows, block_rows, prefix_alloc);
    KvView paged;
    for (size_t b = 0; b < blocks.size(); ++b) {
      paged.Append(blocks[b].layers);
      if (b > 0) {
        ASSERT_NE(blocks[b].layers[0].k.data(),
                  blocks[b - 1].layers[0].k.data() + block_rows * config.kv_size())
            << "blocks must not be adjacent";
      }
    }
    const KvCacheData a_prefix = SliceKv(a_rows, paged.n_tokens, prefix_alloc);
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      model.SetThreadPool(&pool);
      for (const PinnedPass pass : kAllPasses) {
        SCOPED_TRACE("block_rows=" + std::to_string(block_rows) +
                     " threads=" + std::to_string(threads) +
                     " pass=" + std::to_string(static_cast<int>(pass)));
        const PrefillOptions options = PassOptions(pass, /*chunk_size=*/16);
        const bool drop = pass == kStdDrop;  // retains nothing
        const KvRetention all = drop ? KvRetention::kNone : KvRetention::kAll;
        const KvRetention budget = drop ? KvRetention::kNone : KvRetention::kPrefixBudget;
        const PrefillSequence a_paged{a_tokens, paged, all};
        PrefillSequence a_whole = a_paged;
        a_whole.cached_prefix = &a_prefix;
        const PrefillSequence b_cold{b_tokens, nullptr, budget, 20};
        const PrefillSequence c_whole{c_tokens, &c_prefix, budget, 40};
        for (const bool batched : {false, true}) {
          std::vector<PrefillSequence> want_seqs = {a_whole};
          std::vector<PrefillSequence> got_seqs = {a_paged};
          if (batched) {
            for (const PrefillSequence& other : {b_cold, c_whole}) {
              want_seqs.push_back(other);
              got_seqs.push_back(other);
            }
          }
          TrackingAllocator want_arena;
          TrackingAllocator got_arena;
          auto want = model.PrefillBatch(want_seqs, options, want_arena);
          auto got = model.PrefillBatch(got_seqs, options, got_arena);
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          SCOPED_TRACE(batched ? "batched" : "solo");
          EXPECT_EQ(got_arena.peak_bytes(), want_arena.peak_bytes());
          for (size_t i = 0; i < want_seqs.size(); ++i) {
            const PrefillResult& w = want.value()[i];
            const PrefillResult& g = got.value()[i];
            EXPECT_TRUE(SameFloatBits(g.last_logits, w.last_logits)) << "member " << i;
            EXPECT_TRUE(SameKvBits(g.kv, w.kv)) << "member " << i;
          }
        }
      }
    }
    model.SetThreadPool(nullptr);
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

// ------------------------------------------------ row regions
//
// Every pass runs its row-local kernel chains as row regions
// (src/model/llama.cc, RunRowRegion): one fork-join per region, in which
// each thread walks a fixed slice of every chunk and calls the kernels
// serially on it. A slice of a chunk is ThreadPool::ShardRange of the
// chunk's rows, so the slice grid moves with the thread count and the
// chunk size. These tests pin what that grid must not move, and how often a
// pass may fork:
//
//  - OddSplitsHoldPinnedBitsAndPeaks: logits, retained KV and tracked peaks
//    at threads {1, 2, 3, 4, 8}, on stacks whose chunk grid and slice grid
//    do not line up — chunk sizes that do not divide the stack, a one-row
//    last chunk, batched final rows on slice edges — against values
//    recorded from the passes that forked once per kernel call. Bits are
//    independent of pass and thread count, so one fingerprint per (case,
//    backend) covers every cell; peaks are pinned per pass. Failures print
//    the new fingerprint; PREFILLONLY_GOLDEN=off skips them, as above.
//  - AbortOnTheKthPollStopsAfterExactlyKPolls: only the calling thread
//    polls abort_check, at the chunk grid of a serial pass, and a non-OK
//    poll ends the pass with that status and no further poll.
//  - ForkJoinsPerPassArePinned: how often a 500-token pass at two threads
//    forks, per pass, so no schedule change adds a fork-join unseen; the
//    hybrid pass (the engine's) also stays within three per layer (QKV
//    region, attention, o-proj + MLP region) plus a small constant.

constexpr PinnedPass kRegionPasses[] = {kStd, kChunked, kHybrid, kHybridNoInPlace,
                                        kHybridNoPrealloc};

PrefillOptions RegionPassOptions(PinnedPass pass, int64_t chunk_size) {
  PinnedCell cell{};
  cell.pass = pass;
  PrefillOptions options = PinnedOptions(cell);
  options.chunk_size = chunk_size;
  return options;
}

struct CaseSeq {
  int64_t length;
  int64_t n_cached;
};

struct OddSplitCase {
  const char* name;
  int64_t chunk_size;
  KvRetention retention;  // kPrefixBudget keeps positions [0, length - 2)
  int n_seqs;
  CaseSeq seqs[3];
  uint64_t hash[2];  // scalar, avx2
  size_t peak[5];    // per pass, in kRegionPasses order
};

// The `small` model: chunk c gives max(1, min(c / 4, threads)) slices, so
// chunk 24 is cut 1/2/3/4/6 ways at threads 1/2/3/4/8 and its short last
// chunks are cut unevenly.
const OddSplitCase kOddSplitCases[] = {
    // 130 rows under chunk 24: five full chunks and a last one of 10.
    {"chunk 24 over 130 rows", 24, KvRetention::kAll, 1, {{130, 0}},
     {0x02d652bfd09546d4ull, 0x059be6ea0c7bd896ull},
     {899080, 274952, 562184, 628744, 695304}},
    // 65 rows under chunk 64: the last chunk is one row, the final row.
    {"one-row last chunk", 64, KvRetention::kAll, 1, {{65, 0}},
     {0x1ae9629df789695eull, 0xa786e8a29b69bcebull},
     {449540, 443652, 560644, 593924, 627204}},
    // Final rows 5, 11, 23 of one chunk of 24: 11 and 23 close a slice at
    // 2, 4 and 8 threads (slices of 12, 6 and 4 rows), 5 at 4 threads.
    {"final rows close slices", 24, KvRetention::kPrefixBudget, 3,
     {{6, 0}, {6, 0}, {12, 0}},
     {0x7bd2a99a2977b82full, 0x4a2d5bafb73c6e6full},
     {165936, 165936, 202800, 215088, 227376}},
    // Final rows 6, 12, 23: 12 opens a slice at 2, 4 and 8 threads, 6 at 4
    // threads.
    {"final rows open slices", 24, KvRetention::kPrefixBudget, 3,
     {{7, 0}, {6, 0}, {11, 0}},
     {0xc65ea48bb2b2b6eaull, 0x6f38830157da5645ull},
     {165932, 165932, 202796, 215084, 227372}},
    // 7 + 6 + 10 new rows behind cached prefixes under chunk 9: chunks of
    // 9, 9 and 5, each cut in two.
    {"cached prefixes, chunk 9", 9, KvRetention::kPrefixBudget, 3,
     {{20, 13}, {9, 3}, {10, 0}},
     {0x0c0a4c64d1fbb016ull, 0x1cfd2d1839198fc3ull},
     {159056, 76624, 118864, 130640, 142416}},
};

TEST(RowRegionTest, OddSplitsHoldPinnedBitsAndPeaks) {
  if (GoldenDisabled()) {
    GTEST_SKIP() << "PREFILLONLY_GOLDEN=off: fingerprints tied to another toolchain";
  }
  const ModelConfig config = ModelConfig::Small();
  for (const KernelBackend backend : BackendsUnderTest()) {
    const int b = backend == KernelBackend::kAvx2 ? 1 : 0;
    LlamaModel model(config, /*seed=*/42, backend);
    for (const OddSplitCase& c : kOddSplitCases) {
      // Cached prefixes live in their own arena, outside the measured peaks:
      // each is the kAll KV of a solo pass over the sequence's head.
      TrackingAllocator prefix_arena;
      std::vector<std::vector<int32_t>> tokens;
      std::vector<KvCacheData> prefixes(static_cast<size_t>(c.n_seqs));
      for (int i = 0; i < c.n_seqs; ++i) {
        Rng rng(9000 + 10 * static_cast<uint64_t>(c.seqs[i].length) +
                static_cast<uint64_t>(i));
        tokens.push_back(RandomTokens(rng, c.seqs[i].length, config.vocab_size));
        if (c.seqs[i].n_cached > 0) {
          PrefillOptions keep;
          keep.retention = KvRetention::kAll;
          auto head = model.Prefill(std::span<const int32_t>(tokens.back())
                                        .first(static_cast<size_t>(c.seqs[i].n_cached)),
                                    nullptr, keep, prefix_arena);
          ASSERT_TRUE(head.ok()) << head.status().ToString();
          prefixes[static_cast<size_t>(i)] = head.take().kv;
        }
      }
      std::vector<PrefillSequence> sequences;
      for (int i = 0; i < c.n_seqs; ++i) {
        const KvCacheData& prefix = prefixes[static_cast<size_t>(i)];
        sequences.push_back({tokens[static_cast<size_t>(i)],
                             prefix.empty() ? nullptr : &prefix, c.retention,
                             c.seqs[i].length - 2});
      }
      for (const int threads : {1, 2, 3, 4, 8}) {
        ThreadPool pool(threads);
        model.SetThreadPool(&pool);
        for (size_t p = 0; p < std::size(kRegionPasses); ++p) {
          TrackingAllocator arena;
          auto results = model.PrefillBatch(
              sequences, RegionPassOptions(kRegionPasses[p], c.chunk_size), arena);
          ASSERT_TRUE(results.ok()) << results.status().ToString();
          const uint64_t got = Fingerprint(results.value());
          EXPECT_EQ(got, c.hash[b])
              << KernelBackendName(backend) << " \"" << c.name << "\" pass " << p
              << " threads " << threads << ": now 0x" << std::hex << got << "ull";
          EXPECT_EQ(arena.peak_bytes(), c.peak[p])
              << KernelBackendName(backend) << " \"" << c.name << "\" pass " << p
              << " threads " << threads;
        }
        model.SetThreadPool(nullptr);
      }
    }
  }
}

TEST(RowRegionTest, AbortOnTheKthPollStopsAfterExactlyKPolls) {
  const ModelConfig config = ModelConfig::Small();
  LlamaModel model(config, /*seed=*/42);
  Rng rng(77);
  const std::vector<int32_t> tokens = RandomTokens(rng, 130, config.vocab_size);
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    model.SetThreadPool(&pool);
    for (size_t p = 0; p < std::size(kRegionPasses); ++p) {
      PrefillOptions options = RegionPassOptions(kRegionPasses[p], /*chunk_size=*/24);
      int64_t polls = 0;
      int64_t abort_at = 0;  // 0 = never
      options.abort_check = [&] {
        ++polls;
        return polls == abort_at
                   ? Status::Cancelled("abort at poll " + std::to_string(polls))
                   : Status::Ok();
      };
      TrackingAllocator arena;
      ASSERT_TRUE(model.Prefill(tokens, nullptr, options, arena).ok());
      const int64_t total = polls;
      ASSERT_GT(total, 0);
      for (const int64_t k : {int64_t{1}, int64_t{2}, total / 2 + 1, total - 1, total}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " pass " + std::to_string(p) +
                     " k " + std::to_string(k) + " of " + std::to_string(total));
        polls = 0;
        abort_at = k;
        auto aborted = model.Prefill(tokens, nullptr, options, arena);
        ASSERT_FALSE(aborted.ok());
        EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
        EXPECT_EQ(aborted.status().message(), "abort at poll " + std::to_string(k));
        EXPECT_EQ(polls, k);
      }
    }
    model.SetThreadPool(nullptr);
  }
}

// Fork-joins of a 500-token `small` pass at chunk 64 and two threads, per
// pass in kAllPasses order, recorded when the three passes were separate
// functions.
constexpr uint64_t kForkJoinsPerPass[] = {28, 217, 12, 12, 72, 28};
static_assert(std::size(kForkJoinsPerPass) == std::size(kAllPasses));

TEST(RowRegionTest, ForkJoinsPerPassArePinned) {
  const ModelConfig config = ModelConfig::Small();
  LlamaModel model(config, /*seed=*/42);
  ThreadPool pool(2);
  model.SetThreadPool(&pool);
  Rng rng(500);
  const std::vector<int32_t> tokens = RandomTokens(rng, 500, config.vocab_size);
  for (size_t p = 0; p < std::size(kAllPasses); ++p) {
    SCOPED_TRACE("pass " + std::to_string(static_cast<int>(kAllPasses[p])));
    TrackingAllocator arena;
    const uint64_t before = pool.fork_joins();
    ASSERT_TRUE(
        model.Prefill(tokens, nullptr, PassOptions(kAllPasses[p], /*chunk_size=*/64), arena)
            .ok());
    const uint64_t forks = pool.fork_joins() - before;
    EXPECT_EQ(forks, kForkJoinsPerPass[p]);
    if (kAllPasses[p] == kHybrid) {
      EXPECT_LE(forks, 3u * static_cast<uint64_t>(config.n_layers) + 2u);
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

TEST(BatchingEngineTest, DrainedBatchesMatchSerialReferenceBitwise) {
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
    Backlog backlog(engine);
    for (const auto& request : requests) {
      ASSERT_TRUE(backlog.Submit(request).ok());
    }
    auto responses = backlog.Drain();
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
  Backlog backlog(engine);
  // Warm pass, then a batched drain of the four siblings.
  ASSERT_TRUE(engine.ScoreSync(sibling(0, 0)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(backlog.Submit(sibling(static_cast<int32_t>(i), i)).ok());
  }
  auto responses = backlog.Drain();
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
  // contended member runs cold in the same stacked pass (no prefix, no
  // retained KV), and both complete with reference bits.
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
  Backlog backlog(engine);
  for (const auto& request : requests) {
    ASSERT_TRUE(backlog.Submit(request).ok());
  }
  auto responses = backlog.Drain();
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses.value().size(), 2u);
  for (const ScoringResponse& response : responses.value()) {
    const auto user = static_cast<size_t>(response.user_id);
    EXPECT_EQ(response.batch_size, 2) << "user " << user;
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
  // One dispatch decision carried both requests, and one of them ran cold.
  EXPECT_EQ(stats.batches_dispatched, 1);
  EXPECT_EQ(stats.batched_requests, 2);
  EXPECT_EQ(stats.cache.failed_acquires, 1);
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
  Backlog backlog(packed);
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
      ASSERT_TRUE(backlog.Submit(request).ok());
    }
    auto responses = backlog.Drain();
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
  Backlog backlog(engine);
  for (const auto& request : requests) {
    ASSERT_TRUE(backlog.Submit(request).ok());
  }
  auto responses = backlog.Drain();
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
      Backlog backlog(engine);

      const int n = 1 + static_cast<int>(rng.NextBounded(6));
      size_t projected = 0;
      for (int i = 0; i < n; ++i) {
        const int len = 1 + static_cast<int>(rng.NextBounded(96));
        ASSERT_TRUE(backlog.Submit(YesNoRequest(RandomTokens(rng, len), i)).ok());
        projected += projector.SequenceBytes(len, /*n_cached_now=*/0);
      }
      auto responses = backlog.Drain();
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
  // Same soundness bound with prefix hits in play: a cached token is charged
  // only its score-row slot (the pass reads the prefix in place from the
  // cache blocks), and the projection's block-aligned rounding of n_cached
  // must stay conservative against the prefix the engine actually reuses.
  for (PrefillMode mode : kAllModes) {
    const BatchBudget projector = MakeBatchBudget(
        ModelConfig::Tiny(), mode, /*activation_budget_bytes=*/0,
        /*block_tokens=*/16);
    EngineOptions options = BatchEngineOptions();
    options.mode = mode;
    options.cache_budget_tokens = 4096;
    options.max_batch_size = 8;
    Engine engine(options);
    Backlog backlog(engine);

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
      ASSERT_TRUE(backlog.Submit(YesNoRequest(std::move(tokens), i)).ok());
    }
    auto responses = backlog.Drain();
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
