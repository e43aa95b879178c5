// Radix-tree prefix cache over a fixed KV block pool.
//
// The tree is keyed by chain hashes (src/common/hash.h): block i of a
// token sequence is identified by the hash of blocks 0..i, so equal chain
// elements mean equal token prefixes, and a path from the root spells out
// one block-aligned prefix. This is the prefix-caching scheme of
// vLLM/SGLang that the paper builds on (§2.1) and that continuous JCT
// calibration queries before every scheduling decision (§6.3); the tree
// shape (run-compressed nodes, split-on-common-prefix, LRU list over
// nodes, leaf-only eviction) follows vectorch-ai's prefix_cache.h.
//
// Each node holds a run of consecutive blocks (hash + block id per
// element). Two requests sharing any block-aligned prefix share the same
// path — and therefore the same block ids — up to their divergence point;
// inserting a chain that diverges inside a node's run splits the node at
// the common prefix, pure pointer surgery that never touches KV bytes.
//
// Lifecycle of a request against the cache:
//   1. MatchTokens(chain)          — how much prefix is already cached
//                                    (what the JCT calibrator calls).
//   2. Acquire(chain, need_blocks) — pin the matched prefix and allocate
//                                    the remaining blocks from the pool,
//                                    evicting unpinned LRU leaves; fails
//                                    with kResourceExhausted when the
//                                    request cannot fit (the Table 2 "x").
//   3. Release(acq, cache_blocks)  — unpin; insert the freshly computed
//                                    retained-prefix blocks into the tree
//                                    (suffix KV cache discarding caps
//                                    cache_blocks); free the rest.
//
// Eviction walks the LRU list oldest-first and trims unpinned blocks from
// the *tails of leaf nodes only*: a node with children is by construction
// the prefix of everything below it and cannot be reclaimed first. That
// makes two flat-map pathologies structurally impossible — a hot shared
// prefix can no longer age out underneath its suffixes, and no block is
// ever left cached but unreachable (orphaned descendants). A block is
// pinned iff an in-flight request holds a reference (pool refcount > 1);
// pins are always root-contiguous, so tail-trimming never strands a pin.
#ifndef SRC_KVCACHE_PREFIX_CACHE_H_
#define SRC_KVCACHE_PREFIX_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kvcache/block_allocator.h"

namespace prefillonly {

struct PrefixCacheStats {
  int64_t lookups = 0;
  int64_t hit_tokens = 0;     // total tokens served from cache
  int64_t lookup_tokens = 0;  // total tokens looked up
  int64_t evictions = 0;
  int64_t insertions = 0;
  int64_t failed_acquires = 0;

  double HitRate() const {
    return lookup_tokens == 0
               ? 0.0
               : static_cast<double>(hit_tokens) / static_cast<double>(lookup_tokens);
  }
};

// Handle for blocks held by an in-flight request.
struct Acquisition {
  std::vector<uint64_t> chain;   // full chain of the request (copied)
  int64_t matched_blocks = 0;    // prefix blocks served from cache (pinned)
  std::vector<BlockId> blocks;   // all block ids: matched first, then fresh
  bool active = false;
};

class PrefixCache {
 public:
  // `capacity_blocks` is the whole pool: cached + in-flight blocks share it,
  // exactly like KV memory on a GPU.
  PrefixCache(int block_size_tokens, int64_t capacity_blocks);
  ~PrefixCache();

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  int block_size() const { return block_size_; }
  int64_t capacity_blocks() const { return allocator_.total_blocks(); }
  int64_t cached_blocks() const { return cached_blocks_; }
  int64_t free_blocks() const { return allocator_.free_blocks(); }
  // Tree nodes currently live (excluding the root sentinel); a split adds
  // one, evicting a node's last block removes one.
  int64_t num_nodes() const { return num_nodes_; }
  const PrefixCacheStats& stats() const { return stats_; }

  // Longest cached prefix, in tokens (block granularity). Does not touch
  // LRU state — safe to call speculatively from the scheduler.
  int64_t MatchTokens(std::span<const uint64_t> chain) const;

  // Pins the matched prefix of `chain` and allocates `need_blocks` total
  // blocks for the request (matched + fresh), evicting unpinned LRU leaves
  // as necessary. `need_blocks` may exceed the chain length (trailing
  // partial block). `lookup_tokens` is the exact token count the request
  // presented for lookup — hit/lookup accounting is clamped to it so
  // trailing partial blocks can never inflate the hit rate; pass -1 for the
  // legacy whole-block approximation. On failure nothing is held.
  Result<Acquisition> Acquire(std::span<const uint64_t> chain, int64_t need_blocks,
                              int64_t lookup_tokens = -1);

  // Releases an acquisition: unpins matched blocks and caches the first
  // `cache_blocks` chain blocks of the request (including already-matched
  // ones); frees all other fresh blocks. `cache_blocks` beyond the chain
  // length is clamped. Returns the (chain index, block id) pairs newly
  // inserted into the cache — callers that attach real KV data to blocks
  // (src/core) populate exactly those.
  std::vector<std::pair<int64_t, BlockId>> Release(Acquisition& acq,
                                                   int64_t cache_blocks);

  // Invoked whenever a cached block is dropped (eviction or Clear), so a
  // data layer keyed by block id can drop the payload too.
  void SetEvictionListener(
      std::function<void(uint64_t hash, BlockId block, int64_t depth)> listener) {
    eviction_listener_ = std::move(listener);
  }

  // Drops every unpinned cached block (used by failure-injection tests).
  void Clear();

  // Checks the tree while no acquisition is live: the walk from the root
  // reaches cached_blocks() blocks in num_nodes() nodes, and every cached
  // block holds the cache's own reference only (no pin leaked). The first
  // violation comes back as kInternal naming it.
  Status CheckIdle() const;

  // Advances the logical clock used for LRU stamping. The simulator calls
  // this with event timestamps so recency follows simulated time.
  void SetClock(uint64_t now) { clock_ = now; }

 private:
  // One run of consecutive blocks. `run[i]` is the chain hash of the block
  // at depth `base_depth + i`; `blocks[i]` is its pool id. Children are
  // keyed by the first hash of their run (`edge_key`). Nodes live in an
  // intrusive LRU list kept sorted by `last_use` (oldest at the head);
  // the root and the two list sentinels never hold blocks.
  struct Node {
    std::vector<uint64_t> run;
    std::vector<BlockId> blocks;
    int64_t base_depth = 0;
    uint64_t edge_key = 0;  // run[0] at creation; survives tail-trimming
    Node* parent = nullptr;
    std::unordered_map<uint64_t, std::unique_ptr<Node>> children;
    uint64_t last_use = 0;
    Node* lru_prev = nullptr;
    Node* lru_next = nullptr;
  };

  // Longest-prefix walk: `node` is the deepest node entered (the root when
  // nothing matched), `offset` how many of its run elements matched
  // (< run.size() means the walk stopped inside the node), `matched` the
  // total matched block count.
  struct Walk {
    Node* node;
    size_t offset;
    int64_t matched;
  };
  Walk WalkPrefix(std::span<const uint64_t> chain) const;

  void LruUnlink(Node* node);
  // Inserts by walking back from the MRU end, keeping the list sorted by
  // stamp (deeper nodes first among equal stamps, so a chain's suffix is
  // evicted before its prefix). O(1) while stamps are monotone.
  void LruInsertSorted(Node* node);
  void Touch(Node* node, uint64_t stamp);

  // Splits `node` so its first `offset` run elements stay in place and the
  // remainder moves into a new child (which inherits the original
  // children). Returns `node`, now ending exactly at the split point.
  Node* SplitNode(Node* node, size_t offset);

  // Drops the deepest block of `node` (listener + refcount + stats).
  void EvictTailBlock(Node* node);
  // Unlinks an empty leaf from the tree and the LRU list, destroying it.
  void RemoveEmptyLeaf(Node* node);

  // Evicts unpinned leaf tails until at least `needed` blocks are free.
  // Returns false if impossible.
  bool EvictUntilFree(int64_t needed);
  uint64_t NextStamp() { return (clock_ != 0) ? clock_ : ++auto_stamp_; }

  int block_size_;
  BlockAllocator allocator_;
  Node root_;
  Node lru_head_;
  Node lru_tail_;
  int64_t cached_blocks_ = 0;
  int64_t num_nodes_ = 0;
  PrefixCacheStats stats_;
  uint64_t clock_ = 0;
  uint64_t auto_stamp_ = 0;
  std::function<void(uint64_t, BlockId, int64_t)> eviction_listener_;
};

}  // namespace prefillonly

#endif  // SRC_KVCACHE_PREFIX_CACHE_H_
