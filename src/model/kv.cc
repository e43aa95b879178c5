#include "src/model/kv.h"

#include <cassert>
#include <cstring>

namespace prefillonly {

namespace {

// Copies the first `rows` rows of `src` into `dst` starting at dst row
// `dst_row`. Both must share the column width.
void CopyRows(const Tensor& src, Tensor& dst, int64_t rows, int64_t dst_row) {
  assert(src.cols() == dst.cols());
  assert(rows <= src.rows());
  assert(dst_row + rows <= dst.rows());
  std::memcpy(dst.row(dst_row), src.data(),
              static_cast<size_t>(rows) * src.cols() * sizeof(float));
}

}  // namespace

KvBlock CopyBlockFrom(const KvCacheData& source, int64_t source_start,
                      int64_t block_index, int64_t block_size,
                      TrackingAllocator& alloc) {
  const int64_t row_begin = block_index * block_size - source_start;
  assert(row_begin >= 0);
  assert(row_begin + block_size <= source.n_tokens);
  KvBlock block;
  block.layers.resize(source.layers.size());
  const size_t bytes =
      static_cast<size_t>(block_size) * source.layers[0].k.cols() * sizeof(float);
  for (size_t l = 0; l < source.layers.size(); ++l) {
    const int64_t width = source.layers[l].k.cols();
    block.layers[l].k = Tensor::Uninit(alloc, {block_size, width}, "kvblock.k");
    block.layers[l].v = Tensor::Uninit(alloc, {block_size, width}, "kvblock.v");
    std::memcpy(block.layers[l].k.data(), source.layers[l].k.row(row_begin), bytes);
    std::memcpy(block.layers[l].v.data(), source.layers[l].v.row(row_begin), bytes);
  }
  return block;
}

KvView::KvView(const KvCacheData* data) {
  if (data != nullptr && !data->empty()) {
    Append(data->layers);
  }
}

void KvView::Append(std::span<const LayerKv> segment) {
  const int64_t rows = segment.front().k.rows();
  if (empty()) {
    layers.resize(segment.size());
    segment_rows = rows;
  }
  assert(layers.size() == segment.size() && rows == segment_rows);
  for (size_t l = 0; l < layers.size(); ++l) {
    layers[l].k.push_back(segment[l].k.data());
    layers[l].v.push_back(segment[l].v.data());
  }
  n_tokens += rows;
}

KvCacheData SliceKv(const KvCacheData& source, int64_t n_tokens, TrackingAllocator& alloc) {
  assert(n_tokens <= source.n_tokens);
  KvCacheData out;
  out.n_tokens = n_tokens;
  out.layers.resize(source.layers.size());
  for (size_t l = 0; l < source.layers.size(); ++l) {
    const int64_t width = source.layers[l].k.cols();
    out.layers[l].k = Tensor::Uninit(alloc, {n_tokens, width}, "kvcache.k");
    out.layers[l].v = Tensor::Uninit(alloc, {n_tokens, width}, "kvcache.v");
    CopyRows(source.layers[l].k, out.layers[l].k, n_tokens, 0);
    CopyRows(source.layers[l].v, out.layers[l].v, n_tokens, 0);
  }
  return out;
}

}  // namespace prefillonly
