// Tensor payloads for cached KV blocks.
//
// PrefixCache (src/kvcache) tracks WHICH prefixes are cached as block
// metadata; this store holds the actual per-layer K/V tensors for each
// cached block on the real CPU engine. It subscribes to the cache's
// eviction listener so payloads die with their metadata. A prefix hit is
// read in place: the engine looks each pinned block up (Find) and hands the
// pass a KvView of their rows, with no copy; a pinned block is never
// dropped, so its rows stay put while the pass reads them.
#ifndef SRC_CORE_KV_BLOCK_STORE_H_
#define SRC_CORE_KV_BLOCK_STORE_H_

#include <cstdint>
#include <unordered_map>

#include "src/kvcache/block_allocator.h"
#include "src/model/config.h"
#include "src/model/kv.h"
#include "src/tensor/tracking_allocator.h"

namespace prefillonly {

class KvBlockStore {
 public:
  KvBlockStore(const ModelConfig& model, int block_size, TrackingAllocator& alloc);

  // Stores the KV rows for one block: `source` must cover token positions
  // [block_index * block_size, (block_index + 1) * block_size) relative to
  // source_start (the absolute position of source row 0).
  void Put(BlockId block, const KvCacheData& source, int64_t source_start,
           int64_t block_index);

  // The payload of `block`, or null when absent. The pointer stays valid
  // until the block is dropped.
  const KvBlock* Find(BlockId block) const;

  void Drop(BlockId block);
  bool Contains(BlockId block) const { return blocks_.contains(block); }
  size_t block_count() const { return blocks_.size(); }
  size_t bytes() const;

 private:
  int64_t n_layers_;
  int block_size_;
  TrackingAllocator& alloc_;
  std::unordered_map<BlockId, KvBlock> blocks_;
};

}  // namespace prefillonly

#endif  // SRC_CORE_KV_BLOCK_STORE_H_
