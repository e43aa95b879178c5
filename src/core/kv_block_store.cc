#include "src/core/kv_block_store.h"

#include <cassert>

namespace prefillonly {

KvBlockStore::KvBlockStore(const ModelConfig& model, int block_size,
                           TrackingAllocator& alloc)
    : n_layers_(model.n_layers),
      block_size_(block_size),
      alloc_(alloc) {}

void KvBlockStore::Put(BlockId block, const KvCacheData& source, int64_t source_start,
                       int64_t block_index) {
  assert(static_cast<int64_t>(source.layers.size()) == n_layers_);
  blocks_[block] = CopyBlockFrom(source, source_start, block_index, block_size_, alloc_);
}

const KvBlock* KvBlockStore::Find(BlockId block) const {
  auto it = blocks_.find(block);
  return it != blocks_.end() ? &it->second : nullptr;
}

void KvBlockStore::Drop(BlockId block) { blocks_.erase(block); }

size_t KvBlockStore::bytes() const {
  size_t total = 0;
  for (const auto& [id, data] : blocks_) {
    total += data.bytes();
  }
  return total;
}

}  // namespace prefillonly
