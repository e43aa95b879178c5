// Second-tier (CPU) KV cache directory.
//
// The paper discards suffix KV because keeping it in GPU memory is what
// limits the maximum input length; §9 notes the discarded KV could instead
// be offloaded to CPU memory (LMCache-style) and reloaded later. This
// directory is the metadata for that tier in the analytic simulator
// (src/engine): chain hashes with LRU stamps under a block budget, and no
// payloads — the simulator only needs hit lengths and charges a reload
// cost per offloaded token. The real CPU engine keeps one tier
// (docs/CACHING.md).
#ifndef SRC_KVCACHE_OFFLOAD_DIRECTORY_H_
#define SRC_KVCACHE_OFFLOAD_DIRECTORY_H_

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>

namespace prefillonly {

class OffloadDirectory {
 public:
  explicit OffloadDirectory(int64_t capacity_blocks)
      : capacity_blocks_(capacity_blocks) {}

  int64_t capacity_blocks() const { return capacity_blocks_; }
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  int64_t insertions() const { return insertions_; }
  int64_t evictions() const { return evictions_; }

  bool Contains(uint64_t hash) const { return entries_.contains(hash); }

  // Records `hash` in the tier, evicting the LRU entry if full. Returns the
  // evicted hash — nullopt when nothing was displaced. (0 is a valid chain hash, so "no eviction" must
  // be distinguishable from "hash 0 evicted".) A zero-capacity directory
  // drops everything.
  std::optional<uint64_t> Insert(uint64_t hash, int64_t depth);

  // Number of consecutive chain entries present starting at `start_index`
  // (the continuation of a first-tier prefix match). Touches LRU state.
  int64_t MatchContinuation(std::span<const uint64_t> chain, int64_t start_index);

  // Same, without touching LRU stamps (for speculative scheduler probes).
  int64_t PeekContinuation(std::span<const uint64_t> chain, int64_t start_index) const;

  void SetClock(uint64_t now) { clock_ = now; }

 private:
  struct Entry {
    int64_t depth;
    uint64_t last_use;
    std::list<uint64_t>::iterator lru_pos;
  };

  uint64_t NextStamp() { return (clock_ != 0) ? clock_ : ++auto_stamp_; }
  // Repositions `it` in the stamp-sorted LRU list (oldest at the front).
  void Touch(std::unordered_map<uint64_t, Entry>::iterator it, uint64_t stamp);

  int64_t capacity_blocks_;
  std::unordered_map<uint64_t, Entry> entries_;
  // Hashes sorted by last_use ascending: front is the eviction victim.
  // Replaces the old O(n) victim scan per insert.
  std::list<uint64_t> lru_;
  int64_t insertions_ = 0;
  int64_t evictions_ = 0;
  uint64_t clock_ = 0;
  uint64_t auto_stamp_ = 0;
};

}  // namespace prefillonly

#endif  // SRC_KVCACHE_OFFLOAD_DIRECTORY_H_
