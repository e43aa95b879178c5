#include "src/kvcache/prefix_cache.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/common/fault.h"
#include "src/common/logging.h"

namespace prefillonly {

PrefixCache::PrefixCache(int block_size_tokens, int64_t capacity_blocks)
    : block_size_(block_size_tokens), allocator_(capacity_blocks) {
  assert(block_size_tokens > 0);
  lru_head_.lru_next = &lru_tail_;
  lru_tail_.lru_prev = &lru_head_;
}

PrefixCache::~PrefixCache() = default;

void PrefixCache::LruUnlink(Node* node) {
  node->lru_prev->lru_next = node->lru_next;
  node->lru_next->lru_prev = node->lru_prev;
  node->lru_prev = nullptr;
  node->lru_next = nullptr;
}

void PrefixCache::LruInsertSorted(Node* node) {
  // The simulator drives stamps through SetClock and may present them out
  // of order, so position by stamp rather than blindly appending; with the
  // monotone auto-stamp this loop never iterates.
  Node* pos = lru_tail_.lru_prev;
  while (pos != &lru_head_ &&
         (pos->last_use > node->last_use ||
          (pos->last_use == node->last_use && pos->base_depth < node->base_depth))) {
    pos = pos->lru_prev;
  }
  node->lru_prev = pos;
  node->lru_next = pos->lru_next;
  pos->lru_next->lru_prev = node;
  pos->lru_next = node;
}

void PrefixCache::Touch(Node* node, uint64_t stamp) {
  node->last_use = stamp;
  LruUnlink(node);
  LruInsertSorted(node);
}

PrefixCache::Walk PrefixCache::WalkPrefix(std::span<const uint64_t> chain) const {
  auto* node = const_cast<Node*>(&root_);
  size_t offset = 0;
  int64_t matched = 0;
  while (matched < static_cast<int64_t>(chain.size())) {
    auto it = node->children.find(chain[static_cast<size_t>(matched)]);
    if (it == node->children.end()) {
      break;
    }
    Node* child = it->second.get();
    size_t i = 0;  // first element matches by key
    while (i < child->run.size() && matched < static_cast<int64_t>(chain.size()) &&
           child->run[i] == chain[static_cast<size_t>(matched)]) {
      ++i;
      ++matched;
    }
    node = child;
    offset = i;
    if (i < child->run.size()) {
      break;  // diverged (or chain ended) inside this node's run
    }
  }
  return Walk{node, offset, matched};
}

int64_t PrefixCache::MatchTokens(std::span<const uint64_t> chain) const {
  return WalkPrefix(chain).matched * block_size_;
}

void PrefixCache::EvictTailBlock(Node* node) {
  const int64_t depth = node->base_depth + static_cast<int64_t>(node->run.size()) - 1;
  if (eviction_listener_) {
    eviction_listener_(node->run.back(), node->blocks.back(), depth);
  }
  const bool freed = allocator_.DecRef(node->blocks.back());
  assert(freed);
  (void)freed;
  node->run.pop_back();
  node->blocks.pop_back();
  --cached_blocks_;
  ++stats_.evictions;
}

void PrefixCache::RemoveEmptyLeaf(Node* node) {
  assert(node->children.empty() && node->blocks.empty());
  LruUnlink(node);
  --num_nodes_;
  node->parent->children.erase(node->edge_key);  // destroys `node`
}

bool PrefixCache::EvictUntilFree(int64_t needed) {
  // Walk the LRU list oldest-first, trimming unpinned blocks from the
  // tails of leaf nodes. Removing a node can turn its parent into a leaf
  // anywhere in the list, so sweep again while progress is being made —
  // each sweep frees at least one block, so the total work is bounded by
  // the blocks actually evicted, not the table size.
  bool progress = true;
  while (allocator_.free_blocks() < needed && progress) {
    progress = false;
    Node* node = lru_head_.lru_next;
    while (node != &lru_tail_) {
      Node* next = node->lru_next;
      if (node->children.empty()) {
        // Pins are root-contiguous along the path, so within a node they
        // are front-contiguous: an unpinned tail block never hides a
        // pinned deeper one.
        while (allocator_.free_blocks() < needed && !node->blocks.empty() &&
               allocator_.RefCount(node->blocks.back()) == 1) {
          EvictTailBlock(node);
          progress = true;
        }
        if (node->blocks.empty()) {
          RemoveEmptyLeaf(node);
        }
        if (allocator_.free_blocks() >= needed) {
          return true;
        }
      }
      node = next;
    }
  }
  return allocator_.free_blocks() >= needed;
}

Result<Acquisition> PrefixCache::Acquire(std::span<const uint64_t> chain,
                                         int64_t need_blocks, int64_t lookup_tokens) {
  if (need_blocks < static_cast<int64_t>(chain.size())) {
    return Status::InvalidArgument("need_blocks smaller than the hash chain");
  }
  ++stats_.lookups;
  // Token-accurate accounting: the caller tells us how many tokens it
  // actually presented (including a trailing partial block); -1 keeps the
  // whole-block approximation for callers without token counts.
  const int64_t looked_up =
      lookup_tokens >= 0 ? lookup_tokens
                         : static_cast<int64_t>(chain.size()) * block_size_;
  stats_.lookup_tokens += looked_up;

  Acquisition acq;
  acq.chain.assign(chain.begin(), chain.end());

  // Pin the cached prefix so eviction (below) cannot take it. A forced miss
  // (fault injection) skips the match entirely: the request recomputes
  // every block, as if the cache held nothing for this chain.
  const bool force_miss = FaultInjector::Global().Fire(fault::kCacheForceMiss);
  const uint64_t stamp = NextStamp();
  if (!force_miss) {
    const Walk walk = WalkPrefix(chain);
    // Collect the matched path root-first so acq.blocks stays in chain
    // order, pinning every matched block and refreshing node recency.
    std::vector<Node*> path;
    for (Node* n = walk.node; n != &root_; n = n->parent) {
      path.push_back(n);
    }
    std::reverse(path.begin(), path.end());
    for (Node* n : path) {
      const size_t count = (n == walk.node) ? walk.offset : n->run.size();
      for (size_t i = 0; i < count; ++i) {
        allocator_.IncRef(n->blocks[i]);
        acq.blocks.push_back(n->blocks[i]);
      }
      Touch(n, stamp);
    }
    acq.matched_blocks = walk.matched;
  }

  const int64_t fresh_needed = need_blocks - acq.matched_blocks;
  if (!EvictUntilFree(fresh_needed)) {
    for (int64_t i = 0; i < acq.matched_blocks; ++i) {
      allocator_.DecRef(acq.blocks[static_cast<size_t>(i)]);
    }
    ++stats_.failed_acquires;
    return Status::ResourceExhausted("request KV does not fit in the block pool");
  }
  for (int64_t i = 0; i < fresh_needed; ++i) {
    auto block = allocator_.Allocate();
    if (!block.ok()) {
      // EvictUntilFree guarantees free blocks exist, so this only happens
      // under fault injection — but the rollback must still be exact: drop
      // the fresh blocks already taken, then the pins on the matched prefix,
      // leaving the cache exactly as before the call.
      while (static_cast<int64_t>(acq.blocks.size()) > acq.matched_blocks) {
        allocator_.DecRef(acq.blocks.back());
        acq.blocks.pop_back();
      }
      for (int64_t m = 0; m < acq.matched_blocks; ++m) {
        allocator_.DecRef(acq.blocks[static_cast<size_t>(m)]);
      }
      ++stats_.failed_acquires;
      return block.status();
    }
    acq.blocks.push_back(block.value());
  }
  // Only a granted acquisition is served from the cache: a refused one
  // counts its lookup but no hit.
  stats_.hit_tokens += std::min(acq.matched_blocks * block_size_, looked_up);
  acq.active = true;
  return acq;
}

PrefixCache::Node* PrefixCache::SplitNode(Node* node, size_t offset) {
  assert(offset > 0 && offset < node->run.size());
  auto child = std::make_unique<Node>();
  child->run.assign(node->run.begin() + static_cast<std::ptrdiff_t>(offset),
                    node->run.end());
  child->blocks.assign(node->blocks.begin() + static_cast<std::ptrdiff_t>(offset),
                       node->blocks.end());
  child->base_depth = node->base_depth + static_cast<int64_t>(offset);
  child->edge_key = child->run.front();
  child->parent = node;
  child->children = std::move(node->children);
  for (auto& [key, grandchild] : child->children) {
    grandchild->parent = child.get();
  }
  child->last_use = node->last_use;
  node->run.resize(offset);
  node->blocks.resize(offset);
  node->children.clear();
  Node* child_ptr = child.get();
  node->children.emplace(child_ptr->edge_key, std::move(child));
  ++num_nodes_;
  LruInsertSorted(child_ptr);  // same stamp, deeper → evicted before `node`
  return node;
}

std::vector<std::pair<int64_t, BlockId>> PrefixCache::Release(Acquisition& acq,
                                                              int64_t cache_blocks) {
  assert(acq.active);
  std::vector<std::pair<int64_t, BlockId>> inserted_blocks;
  const auto chain_len = static_cast<int64_t>(acq.chain.size());
  cache_blocks = std::clamp<int64_t>(cache_blocks, 0, chain_len);
  const uint64_t stamp = NextStamp();

  // Re-walk: a concurrent request may have cached more of this chain since
  // the acquire (never less — our pins kept the matched path alive).
  const Walk walk = WalkPrefix(acq.chain);
  const int64_t matched_now = walk.matched;
  assert(matched_now >= acq.matched_blocks);

  for (int64_t i = 0; i < static_cast<int64_t>(acq.blocks.size()); ++i) {
    const BlockId block = acq.blocks[static_cast<size_t>(i)];
    if (i < acq.matched_blocks) {
      // Was cached before we pinned it; drop only our pin.
      allocator_.DecRef(block);
      continue;
    }
    if (i < cache_blocks && i >= matched_now) {
      continue;  // freshly computed retained-prefix block: inserted below
    }
    // Duplicate of a concurrently cached block, suffix beyond the retained
    // prefix, or the trailing partial block: discarded.
    allocator_.DecRef(block);
  }

  if (matched_now < cache_blocks) {
    // Attach the new run at the divergence point, splitting mid-run if the
    // walk stopped inside an existing node.
    Node* parent = walk.node;
    if (parent != &root_ && walk.offset < parent->run.size()) {
      parent = SplitNode(parent, walk.offset);
    }
    auto node = std::make_unique<Node>();
    node->base_depth = matched_now;
    node->parent = parent;
    node->last_use = stamp;
    for (int64_t i = matched_now; i < cache_blocks; ++i) {
      node->run.push_back(acq.chain[static_cast<size_t>(i)]);
      node->blocks.push_back(acq.blocks[static_cast<size_t>(i)]);
      inserted_blocks.emplace_back(i, acq.blocks[static_cast<size_t>(i)]);
    }
    node->edge_key = node->run.front();
    Node* node_ptr = node.get();
    parent->children.emplace(node_ptr->edge_key, std::move(node));
    ++num_nodes_;
    cached_blocks_ += cache_blocks - matched_now;
    stats_.insertions += cache_blocks - matched_now;
    LruInsertSorted(node_ptr);
  }

  acq.blocks.clear();
  acq.matched_blocks = 0;
  acq.active = false;
  return inserted_blocks;
}

void PrefixCache::Clear() {
  bool progress = true;
  while (progress) {
    progress = false;
    Node* node = lru_head_.lru_next;
    while (node != &lru_tail_) {
      Node* next = node->lru_next;
      if (node->children.empty()) {
        while (!node->blocks.empty() &&
               allocator_.RefCount(node->blocks.back()) == 1) {
          EvictTailBlock(node);
          progress = true;
        }
        if (node->blocks.empty()) {
          RemoveEmptyLeaf(node);
        }
      }
      node = next;
    }
  }
}

Status PrefixCache::CheckIdle() const {
  int64_t blocks = 0;
  int64_t nodes = 0;
  std::vector<const Node*> stack = {&root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const BlockId block : node->blocks) {
      if (const int32_t refs = allocator_.RefCount(block); refs != 1) {
        return Status::Internal("cached block " + std::to_string(block) + " has " +
                                std::to_string(refs) +
                                " references with no acquisition live, want 1");
      }
    }
    blocks += static_cast<int64_t>(node->blocks.size());
    for (const auto& [key, child] : node->children) {
      ++nodes;
      stack.push_back(child.get());
    }
  }
  if (blocks != cached_blocks_) {
    return Status::Internal("tree reaches " + std::to_string(blocks) +
                            " blocks, cached_blocks() is " +
                            std::to_string(cached_blocks_));
  }
  if (nodes != num_nodes_) {
    return Status::Internal("tree reaches " + std::to_string(nodes) +
                            " nodes, num_nodes() is " + std::to_string(num_nodes_));
  }
  return Status::Ok();
}

}  // namespace prefillonly
