#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/kvcache/block_allocator.h"
#include "src/kvcache/offload_directory.h"
#include "src/kvcache/prefix_cache.h"

namespace prefillonly {
namespace {

// Builds a chain of n distinct hashes rooted at `seed` (stands in for a
// token sequence's block hash chain).
std::vector<uint64_t> Chain(uint64_t seed, int64_t n) {
  std::vector<uint64_t> chain;
  uint64_t h = kFnvOffset ^ seed;
  for (int64_t i = 0; i < n; ++i) {
    h = HashCombine(h, seed * 1315423911ULL + static_cast<uint64_t>(i) + 1);
    chain.push_back(h);
  }
  return chain;
}

// -------------------------------------------------------- BlockAllocator

TEST(BlockAllocatorTest, AllocatesUntilExhausted) {
  BlockAllocator alloc(3);
  EXPECT_EQ(alloc.free_blocks(), 3);
  std::set<BlockId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = alloc.Allocate();
    ASSERT_TRUE(id.ok());
    ids.insert(id.value());
  }
  EXPECT_EQ(ids.size(), 3u);  // distinct ids
  EXPECT_EQ(alloc.free_blocks(), 0);
  EXPECT_EQ(alloc.Allocate().status().code(), StatusCode::kResourceExhausted);
}

TEST(BlockAllocatorTest, RefCountingSharesBlocks) {
  BlockAllocator alloc(1);
  const BlockId id = alloc.Allocate().value();
  alloc.IncRef(id);
  EXPECT_EQ(alloc.RefCount(id), 2);
  EXPECT_FALSE(alloc.DecRef(id));  // still referenced
  EXPECT_EQ(alloc.free_blocks(), 0);
  EXPECT_TRUE(alloc.DecRef(id));  // last reference frees
  EXPECT_EQ(alloc.free_blocks(), 1);
}

TEST(BlockAllocatorTest, FreedBlockIsReusable) {
  BlockAllocator alloc(1);
  const BlockId a = alloc.Allocate().value();
  alloc.DecRef(a);
  const BlockId b = alloc.Allocate().value();
  EXPECT_EQ(a, b);
}

TEST(BlockAllocatorTest, UsedBlocksAccounting) {
  BlockAllocator alloc(4);
  auto a = alloc.Allocate().value();
  auto b = alloc.Allocate().value();
  (void)b;
  EXPECT_EQ(alloc.used_blocks(), 2);
  alloc.DecRef(a);
  EXPECT_EQ(alloc.used_blocks(), 1);
}

// ----------------------------------------------------------- PrefixCache

TEST(PrefixCacheTest, MissThenHitAfterRelease) {
  PrefixCache cache(/*block_size=*/16, /*capacity=*/10);
  const auto chain = Chain(1, 4);
  EXPECT_EQ(cache.MatchTokens(chain), 0);

  auto acq = cache.Acquire(chain, 4);
  ASSERT_TRUE(acq.ok());
  EXPECT_EQ(acq.value().matched_blocks, 0);
  cache.Release(acq.value(), 4);

  EXPECT_EQ(cache.MatchTokens(chain), 4 * 16);
  EXPECT_EQ(cache.cached_blocks(), 4);
}

TEST(PrefixCacheTest, PartialPrefixMatch) {
  PrefixCache cache(16, 10);
  const auto chain = Chain(2, 6);
  auto acq = cache.Acquire(chain, 6);
  ASSERT_TRUE(acq.ok());
  cache.Release(acq.value(), 3);  // cache only 3 blocks (suffix discarded)

  EXPECT_EQ(cache.MatchTokens(chain), 3 * 16);
  // A different sequence sharing the first 3 blocks also hits.
  auto shared = chain;
  shared.resize(3);
  EXPECT_EQ(cache.MatchTokens(shared), 3 * 16);
}

TEST(PrefixCacheTest, AcquireCountsHitTokens) {
  PrefixCache cache(16, 10);
  const auto chain = Chain(3, 4);
  auto first = cache.Acquire(chain, 4);
  cache.Release(first.value(), 4);
  auto second = cache.Acquire(chain, 4);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().matched_blocks, 4);
  cache.Release(second.value(), 4);
  EXPECT_EQ(cache.stats().hit_tokens, 4 * 16);
  EXPECT_EQ(cache.stats().lookup_tokens, 8 * 16);
  EXPECT_NEAR(cache.stats().HitRate(), 0.5, 1e-12);
}

TEST(PrefixCacheTest, EvictsLruWhenFull) {
  PrefixCache cache(16, 4);
  const auto a = Chain(10, 2);
  const auto b = Chain(11, 2);
  const auto c = Chain(12, 2);

  auto acq_a = cache.Acquire(a, 2);
  cache.Release(acq_a.value(), 2);
  auto acq_b = cache.Acquire(b, 2);
  cache.Release(acq_b.value(), 2);
  EXPECT_EQ(cache.cached_blocks(), 4);

  // Touch `a` so `b` becomes LRU.
  auto touch = cache.Acquire(a, 2);
  cache.Release(touch.value(), 2);

  auto acq_c = cache.Acquire(c, 2);  // must evict b's blocks
  ASSERT_TRUE(acq_c.ok());
  cache.Release(acq_c.value(), 2);

  EXPECT_EQ(cache.MatchTokens(a), 2 * 16);
  EXPECT_EQ(cache.MatchTokens(b), 0);
  EXPECT_EQ(cache.MatchTokens(c), 2 * 16);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(PrefixCacheTest, PinnedBlocksAreNotEvicted) {
  PrefixCache cache(16, 4);
  const auto a = Chain(20, 2);
  auto acq_a = cache.Acquire(a, 2);
  cache.Release(acq_a.value(), 2);

  // Re-acquire `a` (pins its 2 blocks) and hold it while filling the pool.
  auto held = cache.Acquire(a, 2);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(held.value().matched_blocks, 2);
  // The idle check sees the live pin.
  EXPECT_EQ(cache.CheckIdle().code(), StatusCode::kInternal);

  const auto b = Chain(21, 3);  // needs 3 fresh; only 2 free
  auto acq_b = cache.Acquire(b, 3);
  EXPECT_EQ(acq_b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().failed_acquires, 1);

  // Cached `a` must have survived the eviction pressure.
  cache.Release(held.value(), 2);
  EXPECT_EQ(cache.MatchTokens(a), 2 * 16);
  EXPECT_TRUE(cache.CheckIdle().ok()) << cache.CheckIdle().ToString();
}

TEST(PrefixCacheTest, FailedAcquireRollsBackPins) {
  PrefixCache cache(16, 3);
  const auto a = Chain(30, 2);
  auto acq_a = cache.Acquire(a, 2);
  cache.Release(acq_a.value(), 2);

  // Request shares `a`'s prefix but needs 4 blocks > capacity.
  auto extended = Chain(30, 2);
  extended.push_back(777);
  extended.push_back(888);
  auto fail = cache.Acquire(extended, 4);
  EXPECT_FALSE(fail.ok());
  // A refused acquisition serves nothing, though it matched two blocks.
  EXPECT_EQ(cache.stats().hit_tokens, 0);
  // The matched pins must have been rolled back: `a` remains evictable.
  EXPECT_TRUE(cache.CheckIdle().ok()) << cache.CheckIdle().ToString();
  const auto b = Chain(31, 3);
  auto acq_b = cache.Acquire(b, 3);
  EXPECT_TRUE(acq_b.ok());
  cache.Release(acq_b.value(), 0);
}

TEST(PrefixCacheTest, RequestLargerThanPoolIsRejected) {
  PrefixCache cache(16, 2);
  const auto chain = Chain(40, 5);
  auto acq = cache.Acquire(chain, 5);
  EXPECT_EQ(acq.status().code(), StatusCode::kResourceExhausted);
}

TEST(PrefixCacheTest, NeedBeyondChainAllocatesAnonymousBlocks) {
  // A 70-token request at block 16 has 4 chain blocks + 1 partial: the
  // partial block is anonymous (never cached).
  PrefixCache cache(16, 10);
  const auto chain = Chain(50, 4);
  auto acq = cache.Acquire(chain, 5);
  ASSERT_TRUE(acq.ok());
  EXPECT_EQ(acq.value().blocks.size(), 5u);
  cache.Release(acq.value(), 4);
  EXPECT_EQ(cache.cached_blocks(), 4);
  EXPECT_EQ(cache.free_blocks(), 6);  // partial block went back to the pool
}

TEST(PrefixCacheTest, NeedSmallerThanChainIsInvalid) {
  PrefixCache cache(16, 10);
  const auto chain = Chain(55, 4);
  auto acq = cache.Acquire(chain, 2);
  EXPECT_EQ(acq.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrefixCacheTest, ConcurrentDuplicateInsertIsDeduplicated) {
  PrefixCache cache(16, 10);
  const auto chain = Chain(60, 2);
  auto acq1 = cache.Acquire(chain, 2);
  auto acq2 = cache.Acquire(chain, 2);  // same prefix, in flight together
  ASSERT_TRUE(acq1.ok());
  ASSERT_TRUE(acq2.ok());
  EXPECT_EQ(acq2.value().matched_blocks, 0);  // acq1 not yet released

  const auto ins1 = cache.Release(acq1.value(), 2);
  const auto ins2 = cache.Release(acq2.value(), 2);
  EXPECT_EQ(ins1.size(), 2u);
  EXPECT_EQ(ins2.size(), 0u);  // duplicate blocks freed, not double-cached
  EXPECT_EQ(cache.cached_blocks(), 2);
  EXPECT_EQ(cache.free_blocks(), 8);
}

TEST(PrefixCacheTest, SuffixEvictedBeforePrefix) {
  // Same stamp => deeper blocks evicted first, keeping the shareable
  // prefix alive longest.
  PrefixCache cache(16, 4);
  const auto a = Chain(70, 4);
  auto acq = cache.Acquire(a, 4);
  cache.Release(acq.value(), 4);

  const auto b = Chain(71, 1);
  auto acq_b = cache.Acquire(b, 1);
  ASSERT_TRUE(acq_b.ok());
  cache.Release(acq_b.value(), 1);

  // One of a's blocks was evicted; it must be the deepest one.
  EXPECT_EQ(cache.MatchTokens(a), 3 * 16);
}

TEST(PrefixCacheTest, EvictionListenerFires) {
  PrefixCache cache(16, 2);
  std::vector<BlockId> evicted;
  cache.SetEvictionListener(
      [&](uint64_t /*hash*/, BlockId block, int64_t /*depth*/) { evicted.push_back(block); });
  const auto a = Chain(80, 2);
  auto acq = cache.Acquire(a, 2);
  cache.Release(acq.value(), 2);
  const auto b = Chain(81, 2);
  auto acq_b = cache.Acquire(b, 2);  // evicts both of a's blocks
  ASSERT_TRUE(acq_b.ok());
  cache.Release(acq_b.value(), 0);
  EXPECT_EQ(evicted.size(), 2u);
}

TEST(PrefixCacheTest, ClearDropsUnpinnedOnly) {
  PrefixCache cache(16, 4);
  const auto a = Chain(90, 2);
  auto acq = cache.Acquire(a, 2);
  cache.Release(acq.value(), 2);
  auto pinned = cache.Acquire(a, 2);  // re-pin
  cache.Clear();
  EXPECT_EQ(cache.MatchTokens(a), 2 * 16);  // survived (pinned)
  cache.Release(pinned.value(), 2);
  cache.Clear();
  EXPECT_EQ(cache.MatchTokens(a), 0);
}

TEST(PrefixCacheTest, ZeroCapacityAlwaysMissesGracefully) {
  PrefixCache cache(16, 0);
  std::vector<uint64_t> empty_chain;
  auto acq = cache.Acquire(empty_chain, 0);
  ASSERT_TRUE(acq.ok());
  cache.Release(acq.value(), 0);
  EXPECT_EQ(cache.MatchTokens(Chain(1, 3)), 0);
}

TEST(PrefixCacheTest, ClockDrivesLruOrder) {
  PrefixCache cache(16, 2);
  const auto a = Chain(100, 1);
  const auto b = Chain(101, 1);
  cache.SetClock(100);
  auto acq_a = cache.Acquire(a, 1);
  cache.Release(acq_a.value(), 1);
  cache.SetClock(200);
  auto acq_b = cache.Acquire(b, 1);
  cache.Release(acq_b.value(), 1);
  cache.SetClock(300);
  const auto c = Chain(102, 1);
  auto acq_c = cache.Acquire(c, 1);  // must evict a (older stamp)
  ASSERT_TRUE(acq_c.ok());
  cache.Release(acq_c.value(), 1);
  EXPECT_EQ(cache.MatchTokens(a), 0);
  EXPECT_EQ(cache.MatchTokens(b), 16);
}

// Invariant sweep: after arbitrary operation sequences, block accounting
// stays consistent (no leaks, no double frees).
TEST(PrefixCacheTest, AccountingInvariantUnderChurn) {
  PrefixCache cache(8, 16);
  for (int round = 0; round < 50; ++round) {
    const auto chain = Chain(static_cast<uint64_t>(round % 7), 1 + round % 5);
    const auto need = static_cast<int64_t>(chain.size()) + round % 2;
    auto acq = cache.Acquire(chain, need);
    if (!acq.ok()) {
      continue;
    }
    cache.Release(acq.value(), static_cast<int64_t>(chain.size()) - round % 3);
    EXPECT_EQ(cache.cached_blocks() + cache.free_blocks(), 16)
        << "round " << round;
  }
}


// ------------------------------------------- Model-based property check
//
// Drives PrefixCache with a random Acquire/Release workload and checks it
// against a simple reference model of what must hold: matches only ever
// report prefixes that were cached and not evicted; accounting stays
// consistent; pinned entries survive arbitrary pressure.

TEST(PrefixCachePropertyTest, RandomWorkloadAgainstReferenceModel) {
  Rng rng(2025);
  PrefixCache cache(8, 24);
  // Ten distinct chains of 1..6 blocks, some sharing roots.
  std::vector<std::vector<uint64_t>> chains;
  for (uint64_t u = 0; u < 5; ++u) {
    const auto full = Chain(u, 6);
    for (int64_t len : {3, 6}) {
      chains.emplace_back(full.begin(), full.begin() + len);
    }
  }

  std::vector<Acquisition> in_flight;
  for (int step = 0; step < 400; ++step) {
    const bool do_acquire = in_flight.size() < 2 && rng.NextDouble() < 0.7;
    if (do_acquire) {
      const auto& chain = chains[rng.NextBounded(chains.size())];
      const int64_t need = static_cast<int64_t>(chain.size()) +
                           static_cast<int64_t>(rng.NextBounded(2));
      const int64_t match_before = cache.MatchTokens(chain);
      auto acq = cache.Acquire(chain, need);
      if (acq.ok()) {
        // The acquire must serve at least the previously visible prefix:
        // nothing between MatchTokens and Acquire could evict it.
        EXPECT_GE(acq.value().matched_blocks * 8, match_before);
        in_flight.push_back(std::move(acq.value()));
      }
    } else if (!in_flight.empty()) {
      const size_t idx = rng.NextBounded(in_flight.size());
      Acquisition acq = std::move(in_flight[idx]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(idx));
      const auto chain_len = static_cast<int64_t>(acq.chain.size());
      const auto keep = static_cast<int64_t>(rng.NextBounded(
          static_cast<uint64_t>(chain_len) + 1));
      const std::vector<uint64_t> chain_copy = acq.chain;
      cache.Release(acq, keep);
      // Everything retained must now be visible.
      EXPECT_GE(cache.MatchTokens(chain_copy), keep * 8);
    }
    // Invariants after every step.
    const int64_t pinned = [&] {
      int64_t total = 0;
      for (const auto& acq : in_flight) {
        total += static_cast<int64_t>(acq.blocks.size());
      }
      return total;
    }();
    EXPECT_LE(cache.cached_blocks(), 24);
    EXPECT_GE(cache.free_blocks(), 0);
    EXPECT_LE(cache.cached_blocks() + pinned, 24 + pinned);  // no phantom blocks
    // Every in-flight matched prefix must still be visible (pinned).
    for (const auto& acq : in_flight) {
      EXPECT_GE(cache.MatchTokens(acq.chain), acq.matched_blocks * 8);
    }
  }
  for (auto& acq : in_flight) {
    cache.Release(acq, 0);
  }
  // Drain: everything evictable, accounting returns to full pool.
  cache.Clear();
  EXPECT_EQ(cache.free_blocks(), 24);
  EXPECT_EQ(cache.cached_blocks(), 0);
}

// ------------------------------------------------------- PrefixTreeTest
//
// Radix-tree specifics (ISSUE 7): split-on-common-prefix, block-id sharing
// between requests that agree on any block-aligned prefix, leaf-only
// eviction (no orphaned descendants), token-accurate hit accounting, and a
// randomized interleaving sweep over the refcount/listener invariants.

// Chains derived from real token sequences, so two sequences that agree on
// a token prefix produce chains that agree exactly up to the divergence
// block — the case the tree must split on.
std::vector<uint64_t> TokenChain(uint64_t seed, int64_t n_tokens, int block_size,
                                 int64_t diverge_at = -1, int32_t delta = 0) {
  Rng rng(seed);
  std::vector<int32_t> tokens(static_cast<size_t>(n_tokens));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(rng.NextBounded(1000));
  }
  if (diverge_at >= 0 && diverge_at < n_tokens) {
    tokens[static_cast<size_t>(diverge_at)] += delta;
  }
  return BlockHashChain(tokens, block_size);
}

TEST(PrefixTreeTest, SplitOnCommonPrefixSharesBlockIds) {
  PrefixCache cache(/*block_size=*/16, /*capacity=*/16);
  // a and b agree on blocks 0..1 and diverge inside block 2.
  const auto a = TokenChain(1, 4 * 16, 16);
  const auto b = TokenChain(1, 4 * 16, 16, /*diverge_at=*/2 * 16 + 3, /*delta=*/7);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_TRUE(std::equal(a.begin(), a.begin() + 2, b.begin()));
  ASSERT_NE(a[2], b[2]);

  auto acq_a = cache.Acquire(a, 4);
  ASSERT_TRUE(acq_a.ok());
  const std::vector<BlockId> a_blocks = acq_a.value().blocks;
  cache.Release(acq_a.value(), 4);
  EXPECT_EQ(cache.num_nodes(), 1);  // one run-compressed node

  auto acq_b = cache.Acquire(b, 4);
  ASSERT_TRUE(acq_b.ok());
  // Block-aligned sharing, NOT identical-full-prefix sharing: b reuses a's
  // physical blocks for the common prefix even though the chains differ.
  EXPECT_EQ(acq_b.value().matched_blocks, 2);
  EXPECT_EQ(acq_b.value().blocks[0], a_blocks[0]);
  EXPECT_EQ(acq_b.value().blocks[1], a_blocks[1]);
  cache.Release(acq_b.value(), 4);

  // The insert split a's node at the divergence point: prefix node plus the
  // two diverging suffix runs.
  EXPECT_EQ(cache.num_nodes(), 3);
  EXPECT_EQ(cache.cached_blocks(), 6);
  EXPECT_EQ(cache.MatchTokens(a), 4 * 16);
  EXPECT_EQ(cache.MatchTokens(b), 4 * 16);
}

TEST(PrefixTreeTest, SecondSplitNestsUnderFirst) {
  PrefixCache cache(16, 32);
  const auto a = TokenChain(2, 6 * 16, 16);
  const auto b = TokenChain(2, 6 * 16, 16, 4 * 16, 5);  // shares 4 blocks
  const auto c = TokenChain(2, 6 * 16, 16, 2 * 16, 9);  // shares 2 blocks

  for (const auto& chain : {a, b, c}) {
    auto acq = cache.Acquire(chain, 6);
    ASSERT_TRUE(acq.ok());
    cache.Release(acq.value(), 6);
  }
  // root -> [0,1] -> {[2..3] -> {[4..5]_a, [4..5]_b}, [2..5]_c}
  EXPECT_EQ(cache.num_nodes(), 5);
  EXPECT_EQ(cache.cached_blocks(), 6 + 2 + 4);
  for (const auto& chain : {a, b, c}) {
    EXPECT_EQ(cache.MatchTokens(chain), 6 * 16);
  }
}

TEST(PrefixTreeTest, OrphanFreeEvictionKeepsBlocksReachable) {
  // The flat-map pathology this tree exists to fix: when a shared prefix
  // carries an OLDER stamp than its suffix blocks (two in-flight requests,
  // the shorter one released first), global block-LRU evicts the prefix and
  // strands the suffix — cached but unreachable. Leaf-only eviction makes
  // that impossible: a node with children is never a victim.
  PrefixCache cache(16, 6);
  const auto full = TokenChain(3, 4 * 16, 16);
  const std::vector<uint64_t> prefix(full.begin(), full.begin() + 2);

  cache.SetClock(1);
  auto long_acq = cache.Acquire(full, 4);     // in flight, nothing cached yet
  auto short_acq = cache.Acquire(prefix, 2);  // concurrent, matches nothing
  ASSERT_TRUE(long_acq.ok());
  ASSERT_TRUE(short_acq.ok());
  cache.Release(short_acq.value(), 2);  // prefix blocks cached at t=1
  cache.SetClock(2);
  cache.Release(long_acq.value(), 4);  // dedups the prefix, suffix cached at t=2

  // Cached: 2 prefix blocks stamped t=1, 2 suffix blocks stamped t=2.
  ASSERT_EQ(cache.cached_blocks(), 4);
  ASSERT_EQ(cache.free_blocks(), 2);

  // A 4-block request must evict 2 of them. The t=1 prefix blocks are the
  // LRU victims under a flat per-block policy — evicting them would strand
  // the t=2 suffix blocks as cached-but-unreachable garbage.
  cache.SetClock(3);
  const auto other = TokenChain(4, 4 * 16, 16);
  auto acq = cache.Acquire(other, 4);
  ASSERT_TRUE(acq.ok());
  cache.Release(acq.value(), 4);

  // The tree trimmed the suffix leaf instead (a node with children is never
  // a victim): the surviving prefix is still reachable, nothing is orphaned.
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_EQ(cache.MatchTokens(prefix), 2 * 16);
  EXPECT_EQ(cache.MatchTokens(full), 2 * 16);  // suffix evicted, prefix intact
  EXPECT_EQ(cache.MatchTokens(other), 4 * 16);
  EXPECT_EQ(cache.cached_blocks(), 6);  // 2 prefix + 4 other, no orphans
}

TEST(PrefixTreeTest, TokenAccurateHitAccounting) {
  // A 70-token request at block 16 presents 70 tokens but only 4 whole
  // blocks can ever hit; the old whole-block accounting credited 64 lookup
  // tokens and could push HitRate past 1.0 from the other direction.
  PrefixCache cache(16, 10);
  const auto chain = Chain(300, 4);
  auto first = cache.Acquire(chain, 5, /*lookup_tokens=*/70);
  ASSERT_TRUE(first.ok());
  cache.Release(first.value(), 4);
  EXPECT_EQ(cache.stats().lookup_tokens, 70);
  EXPECT_EQ(cache.stats().hit_tokens, 0);

  auto second = cache.Acquire(chain, 5, /*lookup_tokens=*/70);
  ASSERT_TRUE(second.ok());
  cache.Release(second.value(), 4);
  EXPECT_EQ(cache.stats().lookup_tokens, 140);
  EXPECT_EQ(cache.stats().hit_tokens, 64);  // 4 whole blocks, not 70
  EXPECT_LE(cache.stats().HitRate(), 1.0);

  // Hit tokens are clamped to what was presented even when the cached
  // prefix is longer than the lookup.
  auto clamped = cache.Acquire(chain, 4, /*lookup_tokens=*/50);
  ASSERT_TRUE(clamped.ok());
  cache.Release(clamped.value(), 4);
  EXPECT_EQ(cache.stats().hit_tokens, 64 + 50);
  EXPECT_LE(cache.stats().HitRate(), 1.0);
}

TEST(PrefixTreeTest, RandomizedInterleavingsKeepInvariants) {
  // Randomized acquire/release/evict interleavings over a family of chains
  // with genuine shared prefixes and mid-chain divergences (so splits,
  // partial matches, pinned-leaf trims and node removals all occur), with
  // every structural invariant checked after every step.
  Rng rng(777);
  constexpr int64_t kCapacity = 32;
  constexpr int kBlock = 8;
  PrefixCache cache(kBlock, kCapacity);

  int64_t listener_evictions = 0;
  std::vector<Acquisition> in_flight;
  cache.SetEvictionListener([&](uint64_t, BlockId block, int64_t) {
    ++listener_evictions;
    // An evicted block can never be one an in-flight request still pins.
    for (const auto& acq : in_flight) {
      for (int64_t m = 0; m < acq.matched_blocks; ++m) {
        EXPECT_NE(acq.blocks[static_cast<size_t>(m)], block);
      }
    }
  });

  std::vector<std::vector<uint64_t>> chains;
  for (uint64_t family = 0; family < 4; ++family) {
    for (int64_t diverge : {-1, 2 * kBlock, 4 * kBlock + 1}) {
      for (int64_t blocks : {3, 6}) {
        chains.push_back(TokenChain(family, blocks * kBlock, kBlock, diverge,
                                    static_cast<int32_t>(diverge + 3)));
      }
    }
  }

  for (int step = 0; step < 3000; ++step) {
    const bool do_acquire = in_flight.size() < 3 && rng.NextDouble() < 0.6;
    if (do_acquire) {
      const auto& chain = chains[rng.NextBounded(chains.size())];
      const int64_t extra = static_cast<int64_t>(rng.NextBounded(2));
      const int64_t lookup =
          static_cast<int64_t>(chain.size()) * kBlock + extra * (kBlock / 2);
      auto acq = cache.Acquire(chain, static_cast<int64_t>(chain.size()) + extra,
                               lookup);
      if (acq.ok()) {
        EXPECT_EQ(cache.MatchTokens(chain), acq.value().matched_blocks * kBlock);
        in_flight.push_back(std::move(acq.value()));
      }
    } else if (!in_flight.empty()) {
      const size_t idx = rng.NextBounded(in_flight.size());
      Acquisition acq = std::move(in_flight[idx]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(idx));
      const auto chain_len = static_cast<int64_t>(acq.chain.size());
      const int64_t keep = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(chain_len) + 1));
      const std::vector<uint64_t> chain_copy = acq.chain;
      cache.Release(acq, keep);
      EXPECT_GE(cache.MatchTokens(chain_copy), keep * kBlock);
    }
    if (step % 97 == 0) {
      cache.Clear();  // eviction storm: only pinned paths may survive
    }

    // --- invariants, every step ---------------------------------------
    int64_t held_fresh = 0;
    for (const auto& acq : in_flight) {
      held_fresh += static_cast<int64_t>(acq.blocks.size()) - acq.matched_blocks;
      // Pinned prefixes stay visible under arbitrary pressure.
      EXPECT_GE(cache.MatchTokens(acq.chain), acq.matched_blocks * kBlock);
    }
    // Exact pool accounting: tree-owned + request-owned + free = capacity.
    EXPECT_EQ(cache.cached_blocks() + held_fresh + cache.free_blocks(), kCapacity);
    EXPECT_EQ(listener_evictions, cache.stats().evictions);
    EXPECT_LE(cache.stats().HitRate(), 1.0);
    if (in_flight.empty()) {
      EXPECT_TRUE(cache.CheckIdle().ok()) << "step " << step << ": "
                                          << cache.CheckIdle().ToString();
    }
  }

  for (auto& acq : in_flight) {
    cache.Release(acq, 0);
  }
  in_flight.clear();
  cache.Clear();
  EXPECT_EQ(cache.cached_blocks(), 0);
  EXPECT_EQ(cache.num_nodes(), 0);
  EXPECT_EQ(cache.free_blocks(), kCapacity);
}

// ------------------------------------------------------ OffloadDirectory

TEST(OffloadDirectoryTest, InsertAndMatchContinuation) {
  OffloadDirectory dir(4);
  const auto chain = Chain(200, 4);
  for (size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(dir.Insert(chain[i], static_cast<int64_t>(i)), std::nullopt);
  }
  EXPECT_EQ(dir.size(), 4);
  EXPECT_EQ(dir.MatchContinuation(chain, 0), 4);
  EXPECT_EQ(dir.MatchContinuation(chain, 2), 2);
  EXPECT_EQ(dir.PeekContinuation(chain, 1), 3);
}

TEST(OffloadDirectoryTest, LruEvictionOnOverflow) {
  OffloadDirectory dir(2);
  dir.SetClock(1);
  dir.Insert(100, 0);
  dir.SetClock(2);
  dir.Insert(200, 0);
  dir.SetClock(3);
  const std::optional<uint64_t> evicted = dir.Insert(300, 0);
  EXPECT_EQ(evicted, std::optional<uint64_t>(100u));  // oldest entry displaced
  EXPECT_FALSE(dir.Contains(100));
  EXPECT_TRUE(dir.Contains(200));
  EXPECT_TRUE(dir.Contains(300));
  EXPECT_EQ(dir.evictions(), 1);
}

TEST(OffloadDirectoryTest, ZeroCapacityDropsEverything) {
  OffloadDirectory dir(0);
  EXPECT_EQ(dir.Insert(1, 0), std::nullopt);
  EXPECT_FALSE(dir.Contains(1));
  EXPECT_EQ(dir.size(), 0);
}

TEST(OffloadDirectoryTest, ReinsertRefreshesLru) {
  OffloadDirectory dir(2);
  dir.SetClock(1);
  dir.Insert(100, 0);
  dir.SetClock(2);
  dir.Insert(200, 0);
  dir.SetClock(3);
  dir.Insert(100, 0);  // refresh
  dir.SetClock(4);
  const std::optional<uint64_t> evicted = dir.Insert(300, 0);
  EXPECT_EQ(evicted, std::optional<uint64_t>(200u));
}

TEST(OffloadDirectoryTest, MatchTouchesLru) {
  OffloadDirectory dir(2);
  const auto a = Chain(300, 1);
  const auto b = Chain(301, 1);
  dir.SetClock(1);
  dir.Insert(a[0], 0);
  dir.SetClock(2);
  dir.Insert(b[0], 0);
  dir.SetClock(3);
  dir.MatchContinuation(a, 0);  // a becomes most recent
  dir.SetClock(4);
  const auto c = Chain(302, 1);
  EXPECT_EQ(dir.Insert(c[0], 0), std::optional<uint64_t>(b[0]));
}

}  // namespace
}  // namespace prefillonly
