// KV cache data for the real (CPU) model path.
//
// Holds the per-layer key/value tensors for a contiguous token range
// starting at position 0 — i.e. a *prefix*. PrefillOnly's suffix KV cache
// discarding (§5.1) manifests here as a KvCacheData that covers fewer
// tokens than were prefilled: the suffix KV existed only transiently inside
// the forward pass and was never materialized into the result.
#ifndef SRC_MODEL_KV_H_
#define SRC_MODEL_KV_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/tensor.h"

namespace prefillonly {

struct LayerKv {
  Tensor k;  // [n_tokens, kv_size]
  Tensor v;  // [n_tokens, kv_size]
};

struct KvCacheData {
  std::vector<LayerKv> layers;
  int64_t n_tokens = 0;

  bool empty() const { return n_tokens == 0; }
  size_t bytes() const {
    size_t total = 0;
    for (const auto& layer : layers) {
      total += layer.k.bytes() + layer.v.bytes();
    }
    return total;
  }
};

// Deep copy of the first `n_tokens` rows of every layer.
KvCacheData SliceKv(const KvCacheData& source, int64_t n_tokens,
                    TrackingAllocator& alloc);

// One block-size chunk of all-layer KV — the payload unit of the prefix
// cache's KvBlockStore.
struct KvBlock {
  std::vector<LayerKv> layers;  // each [block_size, kv_width]

  size_t bytes() const {
    size_t total = 0;
    for (const auto& layer : layers) {
      total += layer.k.bytes() + layer.v.bytes();
    }
    return total;
  }
};

// Extracts block `block_index` (token range [block_index * block_size,
// (block_index + 1) * block_size)) from `source`, whose row 0 sits at
// absolute position `source_start`.
KvBlock CopyBlockFrom(const KvCacheData& source, int64_t source_start,
                      int64_t block_index, int64_t block_size,
                      TrackingAllocator& alloc);

// A read-only view of the KV of tokens [0, n_tokens), a cached prefix,
// where it sits: per layer, the K and V pointers of each segment_rows-row
// segment, in token order. The engine's view of a hit has one segment per
// pinned cache block. The view owns nothing: the rows must outlive it.
struct KvView {
  struct Layer {
    std::vector<const float*> k;  // segment s: [segment_rows, kv_width] rows
    std::vector<const float*> v;
  };
  std::vector<Layer> layers;
  int64_t n_tokens = 0;
  int64_t segment_rows = 0;

  KvView() = default;
  // Implicit, so a `const KvCacheData*` is a view: one segment of all its
  // rows, or the empty view for null.
  KvView(const KvCacheData* data);  // NOLINT(google-explicit-constructor)

  bool empty() const { return n_tokens == 0; }
  // Appends the next segment, one LayerKv per layer (a KvBlock's layers);
  // every segment has segment_rows rows.
  void Append(std::span<const LayerKv> segment);
};

}  // namespace prefillonly

#endif  // SRC_MODEL_KV_H_
