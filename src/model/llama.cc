#include "src/model/llama.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

namespace prefillonly {

namespace {

Status Oom(const char* tag) {
  return Status::ResourceExhausted(std::string("activation allocation failed: ") + tag);
}

// Cooperative abort poll (PrefillOptions::abort_check), called at chunk and
// layer boundaries. Ok when no check is installed.
Status CheckAbort(const PrefillOptions& options) {
  if (!options.abort_check) {
    return Status::Ok();
  }
  return options.abort_check();
}

// How many of a sequence's `n_new` freshly computed tokens (starting at
// absolute position n_cached) its retention policy keeps.
int64_t RetainedNewTokens(const PrefillSequence& seq, int64_t n_cached,
                          int64_t n_new) {
  switch (seq.retention) {
    case KvRetention::kNone:
      return 0;
    case KvRetention::kAll:
      return n_new;
    case KvRetention::kPrefixBudget:
      return std::clamp<int64_t>(seq.prefix_budget_tokens - n_cached, 0, n_new);
  }
  return 0;
}

// ------------------------------------------------------------------------
// Row-parallel regions. A pass forks once per row-local chain of kernels,
// not once per kernel call: RunRowRegion issues ONE ThreadPool::Fork in
// which each thread walks its fixed slice of every chunk of the region's
// rows and calls the chain's kernels serially (pool = nullptr) on them. The
// chains are row-local, so no thread reads a row another one writes, and
// every element goes through the same kernel code as a serial pass: the
// bits do not depend on the slicing.
// ------------------------------------------------------------------------

// Fewest rows of a chunk worth a slice of their own: a fork-join costs
// about as much as a few rows of one layer's linear chain.
constexpr int64_t kMinSliceRows = 4;

// The shared state of one region.
struct RowRegionState {
  int64_t row_begin = 0;
  int64_t row_end = 0;
  int64_t chunk = 0;
  // Polled regions: the slice holding each chunk's first row polls
  // abort_check before the chunk, on the calling thread.
  const PrefillOptions* polled = nullptr;
  std::atomic<bool> stop{false};  // set by a non-OK poll
  Status status;                  // that poll's status
};

// One thread's share of a region: slice `slice` of `slices` of every
// chunk, the contiguous run of the chunk's rows ThreadPool::ShardRange
// gives it.
class RowSlice {
 public:
  RowSlice(RowRegionState& region, int slice, int slices)
      : region_(region), slice_(slice), slices_(slices) {}

  // Calls fn(b, e, t) for this slice's rows [b, e) of each chunk, in
  // order, skipping chunks where the slice is empty. Rows [t, t + e - b)
  // of a [chunk, ...] temporary are this slice's own in every chunk: t is
  // where its share of a full chunk starts, and its share of a short last
  // chunk is never larger. False once the region has stopped: the slice
  // did none of the chunks left.
  template <typename Fn>
  bool ForEachChunk(Fn&& fn) const {
    const bool polls = slice_ == 0 && region_.polled != nullptr;
    const int64_t t = ThreadPool::ShardRange(region_.chunk, slices_, slice_).first;
    for (int64_t r0 = region_.row_begin; r0 < region_.row_end; r0 += region_.chunk) {
      if (polls) {
        if (Status abort = CheckAbort(*region_.polled); !abort.ok()) {
          region_.status = std::move(abort);
          region_.stop.store(true, std::memory_order_relaxed);
          return false;
        }
      } else if (region_.stop.load(std::memory_order_relaxed)) {
        return false;
      }
      const int64_t cs = std::min(region_.chunk, region_.row_end - r0);
      const auto [b, e] = ThreadPool::ShardRange(cs, slices_, slice_);
      if (b < e) {
        fn(r0 + b, r0 + e, t);
      }
    }
    return true;
  }

 private:
  RowRegionState& region_;
  int slice_;
  int slices_;
};

// Runs body(const RowSlice&) once per thread over rows [row_begin,
// row_end) cut into chunks of `chunk` rows (the last may be short), as one
// fork-join on `pool` (null = serial) with one slice per thread the fork
// got. With `polled`, abort_check is polled before every chunk of every
// ForEachChunk walk, by the calling thread only, and the first non-OK
// status stops the region and is returned.
template <typename Body>
Status RunRowRegion(ThreadPool* pool, int64_t row_begin, int64_t row_end, int64_t chunk,
                    const PrefillOptions* polled, Body&& body) {
  RowRegionState region;
  region.row_begin = row_begin;
  region.row_end = row_end;
  region.chunk = chunk;
  region.polled = polled;
  int max_slices = 1;
  if (pool != nullptr) {
    const int64_t rows = std::min(chunk, row_end - row_begin);
    max_slices = static_cast<int>(std::clamp<int64_t>(
        rows / kMinSliceRows, 1, static_cast<int64_t>(pool->num_threads())));
  }
  if (max_slices == 1) {
    body(RowSlice(region, 0, 1));
  } else {
    pool->Fork(max_slices,
               [&](int slice, int slices) { body(RowSlice(region, slice, slices)); });
  }
  return std::move(region.status);
}

// An unpolled one-chunk region: fn(b, e) over each thread's rows of
// [row_begin, row_end).
template <typename Fn>
void ParallelRows(ThreadPool* pool, int64_t row_begin, int64_t row_end, Fn&& fn) {
  const Status ok = RunRowRegion(
      pool, row_begin, row_end, row_end - row_begin, nullptr, [&](const RowSlice& slice) {
        slice.ForEachChunk([&](int64_t b, int64_t e, int64_t /*t*/) { fn(b, e); });
      });
  assert(ok.ok());
  (void)ok;
}

// Fills a tensor with deterministic uniform values in [-scale, scale).
void InitUniform(Tensor& t, Rng& rng, float scale) {
  for (float& v : t.span()) {
    v = rng.NextUniformFloat(scale);
  }
}

}  // namespace

// Declares `var` as a budget-checked activation tensor; returns
// kResourceExhausted from the enclosing function when the allocator budget
// would be exceeded. The shape goes last so brace-lists with commas work.
#define PO_TRY_ALLOC(var, alloc, tag, ...)                 \
  Tensor var = Tensor::TryCreate(alloc, __VA_ARGS__, tag); \
  if (var.empty()) {                                       \
    return Oom(tag);                                       \
  }

LlamaModel::LlamaModel(ModelConfig config, uint64_t seed, KernelBackend backend)
    : config_(std::move(config)),
      weight_alloc_(std::make_unique<TrackingAllocator>()),
      kops_(GetKernelOps(backend)),
      rope_table_(config_.head_dim, config_.rope_theta) {
  assert(config_.Valid());
  // Warm the RoPE table for typical request lengths; longer passes grow it
  // lazily (and exactly once) in Prefill.
  rope_table_.EnsureCapacity(1024);
  Rng rng(seed);
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kv = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  auto& wa = *weight_alloc_;

  embedding_ = Tensor::Uninit(wa, {config_.vocab_size, h}, "w.embedding");
  InitUniform(embedding_, rng, 0.05f);

  const auto fan = [](int64_t fan_in) {
    return 1.0f / std::sqrt(static_cast<float>(fan_in));
  };

  // Initializes a weight matrix and — when the backend wants it — repacks
  // it into its panel-major image right away (the one-time prepack of
  // ISSUE 3), then releases the dense image: the packed GEMM is the only
  // reader, and keeping both would double resident weight memory — memory
  // the engine would rather spend on KV cache. The rng is consumed
  // identically either way, so weights are seed-deterministic across
  // backends; the transient dense+packed overlap is one matrix wide.
  const auto make_weight = [&](std::vector<int64_t> shape, const char* tag,
                               float scale) {
    Weight w;
    w.dense = Tensor::Uninit(wa, std::move(shape), tag);
    InitUniform(w.dense, rng, scale);
    if (kops_->gemm_layout == GemmLayout::kPacked) {
      w.packed = PackWeights(wa, w.dense.data(), w.dense.dim(0), w.dense.dim(1),
                             std::string(tag) + ".packed");
      w.dense = Tensor();
    }
    return w;
  };

  layers_.resize(static_cast<size_t>(config_.n_layers));
  for (auto& layer : layers_) {
    layer.attn_norm = Tensor::Uninit(wa, {h}, "w.attn_norm");
    for (float& v : layer.attn_norm.span()) {
      v = 1.0f + rng.NextUniformFloat(0.02f);
    }
    layer.wq = make_weight({h, qs}, "w.wq", fan(h));
    layer.wk = make_weight({h, kv}, "w.wk", fan(h));
    layer.wv = make_weight({h, kv}, "w.wv", fan(h));
    layer.wo = make_weight({qs, h}, "w.wo", fan(qs));
    layer.mlp_norm = Tensor::Uninit(wa, {h}, "w.mlp_norm");
    for (float& v : layer.mlp_norm.span()) {
      v = 1.0f + rng.NextUniformFloat(0.02f);
    }
    layer.w_gate_up = make_weight({h, 2 * inter}, "w.gate_up", fan(h));
    layer.w_down = make_weight({inter, h}, "w.down", fan(inter));
  }

  final_norm_ = Tensor::Uninit(wa, {h}, "w.final_norm");
  for (float& v : final_norm_.span()) {
    v = 1.0f + rng.NextUniformFloat(0.02f);
  }
  lm_head_ = make_weight({h, config_.vocab_size}, "w.lm_head", fan(h));
}

void LlamaModel::MatMulW(const float* a, const Weight& w, float* c, int64_t m,
                         ThreadPool* pool) const {
  if (!w.packed.empty()) {
    MatMulPacked(a, w.packed, c, m, pool, kops_);
  } else {
    MatMul(a, w.dense.data(), c, m, w.dense.dim(0), w.dense.dim(1), pool, kops_);
  }
}

Status LlamaModel::Validate(const PrefillSequence& seq,
                            const PrefillOptions& options) const {
  if (seq.tokens.empty()) {
    return Status::InvalidArgument("empty token sequence");
  }
  for (int32_t t : seq.tokens) {
    if (t < 0 || t >= config_.vocab_size) {
      return Status::InvalidArgument("token id out of vocabulary range");
    }
  }
  if (const KvView& prefix = seq.cached_prefix; !prefix.empty()) {
    if (prefix.n_tokens >= static_cast<int64_t>(seq.tokens.size())) {
      return Status::InvalidArgument(
          "cached prefix must be shorter than the request: the last token's "
          "logits are always recomputed");
    }
    if (prefix.layers.size() != layers_.size()) {
      return Status::InvalidArgument("cached prefix layer count mismatch");
    }
  }
  if (options.chunk_size <= 0 &&
      (options.mode == PrefillMode::kChunked || options.mode == PrefillMode::kHybrid)) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  if (options.in_place && !options.preallocate_outputs) {
    return Status::InvalidArgument("in_place requires preallocate_outputs");
  }
  if (options.drop_kv_in_pass) {
    if (options.mode != PrefillMode::kStandard) {
      return Status::InvalidArgument("drop_kv_in_pass only applies to kStandard");
    }
    if (seq.retention != KvRetention::kNone) {
      return Status::InvalidArgument("drop_kv_in_pass cannot retain KV");
    }
  }
  if (seq.retention == KvRetention::kPrefixBudget && seq.prefix_budget_tokens < 0) {
    return Status::InvalidArgument("negative prefix budget");
  }
  return Status::Ok();
}

int64_t LlamaModel::workers() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

void LlamaModel::Attention(const float* q, int64_t q_rows, int64_t q_pos0,
                           const KvView& prefix, size_t layer, const float* k_new,
                           const float* v_new, int64_t new_rows, float* out,
                           float* scores, float* extra_scores,
                           int64_t scores_stride) const {
  const int64_t n_heads = config_.n_heads;
  const int64_t group = n_heads / config_.n_kv_heads;
  const int64_t n_prefix = prefix.n_tokens;
  assert(q_pos0 + q_rows <= scores_stride);
  assert(q_pos0 + q_rows - n_prefix <= new_rows);
  const KvView::Layer* layer_prefix = prefix.empty() ? nullptr : &prefix.layers[layer];
  const AttentionArgs args{
      q,
      out,
      layer_prefix != nullptr ? layer_prefix->k.data() : nullptr,
      layer_prefix != nullptr ? layer_prefix->v.data() : nullptr,
      prefix.segment_rows,
      k_new,
      v_new,
      n_prefix,
      q_pos0,
      n_heads,
      config_.n_kv_heads,
      config_.head_dim,
      1.0f / std::sqrt(static_cast<float>(config_.head_dim)),
  };

  // One work item = one (query row, head) pair, flattened row-major. A
  // range of items is a partial first row, whole rows and a partial last
  // row; it runs as kernel calls over a row range x the heads of one KV
  // group. Each pair owns the disjoint output slice out[i*qs + head*head_dim,
  // +head_dim) and the kernel computes it identically however the items are
  // grouped into calls — bitwise identical for every thread count.
  const auto body = [&](int64_t begin, int64_t end, int worker) {
    float* my_scores =
        worker == 0 ? scores : extra_scores + (worker - 1) * scores_stride;
    while (begin < end) {
      const int64_t i = begin / n_heads;
      const int64_t h0 = begin % n_heads;
      const bool whole_rows = h0 == 0 && end - begin >= n_heads;
      const int64_t r1 = whole_rows ? i + (end - begin) / n_heads : i + 1;
      const int64_t h1 = whole_rows ? n_heads : std::min(n_heads, h0 + (end - begin));
      for (int64_t h = h0; h < h1;) {
        const int64_t group_end = std::min(h1, (h / group + 1) * group);
        kops_->attention_rows(args, i, r1, h, group_end, my_scores);
        h = group_end;
      }
      begin = (r1 - 1) * n_heads + h1;
    }
  };
  const int64_t work = q_rows * n_heads;
  const int max_shards = pool_ != nullptr ? pool_->num_threads() : 1;
  if (max_shards == 1 || work < 2) {
    body(0, work, 0);
    return;
  }
  // Causal attention cost is triangular: row i costs ~(q_pos0 + i + 1)
  // keys per head. Equal-size index ranges would hand the last thread ~2x
  // the average work, so shard by equal AREA instead, at (row, head)
  // granularity so even a 1-row chunk still spreads its heads across
  // threads. Cumulative cost before flat index idx = (i, h):
  //   C(idx) = W(i) * n_heads + h * (q_pos0 + i + 1),
  // with W(i) = i*q_pos0 + i*(i+1)/2 the per-head cost of rows [0, i).
  // Ownership stays unique and per-element computation untouched, so bits
  // are identical to any other partition — purely a load-balance choice.
  const auto weight_before = [&](int64_t i) { return i * q_pos0 + i * (i + 1) / 2; };
  const auto cum_cost = [&](int64_t idx) {
    const int64_t i = idx / n_heads;
    const int64_t h = idx % n_heads;
    return weight_before(i) * n_heads + h * (q_pos0 + i + 1);
  };
  const int64_t total = weight_before(q_rows) * n_heads;
  // Shard s of `shards` starts at the smallest idx with cum_cost(idx) >=
  // total * s / shards; each thread finds its own two bounds, for however
  // many threads the fork got.
  const auto bound = [&](int s, int shards) {
    if (s == shards) {
      return work;
    }
    const int64_t target = total * s / shards;
    int64_t lo = 0;
    int64_t hi = work;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (cum_cost(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  pool_->Fork(max_shards, [&](int shard, int shards) {
    body(bound(shard, shards), bound(shard + 1, shards), shard);
  });
}

std::vector<float> LlamaModel::LastLogits(const float* hidden_row) const {
  const int64_t h = config_.hidden_size;
  std::vector<float> normed(static_cast<size_t>(h));
  RmsNormRows(hidden_row, final_norm_.data(), normed.data(), 1, h, config_.rms_eps,
              nullptr, kops_);
  std::vector<float> logits(static_cast<size_t>(config_.vocab_size));
  MatMulW(normed.data(), lm_head_, logits.data(), 1, pool_);
  return logits;
}

template <typename Fn>
void LlamaModel::ForEachLiveRun(std::span<const SeqLayout> layouts, bool last_layer,
                                int64_t r0, int64_t r1, Fn&& fn) {
  int64_t run0 = 0;
  int64_t run1 = 0;  // the pending run [run0, run1); empty when equal
  for (const SeqLayout& lo : layouts) {
    const int64_t b = std::max(r0, lo.live_row0(last_layer));
    const int64_t e = std::min(r1, lo.row_end());
    if (b >= e) {
      continue;
    }
    if (b != run1) {
      if (run1 > run0) {
        fn(run0, run1 - run0);
      }
      run0 = b;
    }
    run1 = e;
  }
  if (run1 > run0) {
    fn(run0, run1 - run0);
  }
}

template <typename Live>
void LlamaModel::QkvRows(const LayerWeights& w, const float* hidden, float* normed,
                         float* q, float* k, float* v, std::span<const int32_t> positions,
                         int64_t b, int64_t e, Live&& live) const {
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const auto pos = [&](int64_t r, int64_t n) {
    return positions.subspan(static_cast<size_t>(r), static_cast<size_t>(n));
  };
  RmsNormRows(hidden + b * h, w.attn_norm.data(), normed + b * h, e - b, h,
              config_.rms_eps, nullptr, kops_);
  live(b, e, [&](int64_t r, int64_t n) {
    MatMulW(normed + r * h, w.wq, q + r * qs, n);
    ApplyRopeWithTable(q + r * qs, n, config_.n_heads, config_.head_dim, pos(r, n),
                       rope_table_);
  });
  MatMulW(normed + b * h, w.wk, k + b * kvw, e - b);
  MatMulW(normed + b * h, w.wv, v + b * kvw, e - b);
  ApplyRopeWithTable(k + b * kvw, e - b, config_.n_kv_heads, config_.head_dim,
                     pos(b, e - b), rope_table_);
}

// ------------------------------------------------------------------------
// The forward pass: stacked-row prefill over one or more sequences. A solo
// Prefill is the one-sequence case.
// ------------------------------------------------------------------------

namespace {

// The stacked-row geometry every mode shares: the new tokens of all
// sequences in layout order, each row's absolute (per-sequence) RoPE
// position, and the longest sequence (the score-scratch stride).
struct BatchStack {
  int64_t m_rows = 0;
  int64_t max_total = 0;
  std::vector<int32_t> tokens;
  std::vector<int32_t> positions;
};

BatchStack StackNewRows(std::span<const PrefillSequence> sequences) {
  BatchStack stack;
  for (const PrefillSequence& seq : sequences) {
    const auto n_total = static_cast<int64_t>(seq.tokens.size());
    const int64_t n_cached = seq.cached_prefix.n_tokens;
    stack.max_total = std::max(stack.max_total, n_total);
    for (int64_t i = n_cached; i < n_total; ++i) {
      stack.tokens.push_back(seq.tokens[static_cast<size_t>(i)]);
      stack.positions.push_back(static_cast<int32_t>(i));
    }
  }
  stack.m_rows = static_cast<int64_t>(stack.tokens.size());
  return stack;
}

// Hands one sequence rows [row0, row0 + retained) of every layer of the
// stacked pass KV; false on arena exhaustion. A sequence that retains every
// row of the stack (a batch of one keeping all its KV) takes `pass_kv`
// itself: a copy would hold both images at once and raise the tracked peak.
// Anyone else gets a copy, made while `pass_kv` is still alive.
bool TakeRetainedKv(std::vector<LayerKv>& pass_kv, int64_t m_rows, int64_t row0,
                    int64_t retained, int64_t kvw, TrackingAllocator& act,
                    KvCacheData& out) {
  out.n_tokens = retained;
  if (retained == m_rows) {
    out.layers = std::move(pass_kv);
    return true;
  }
  out.layers.resize(pass_kv.size());
  for (size_t l = 0; l < pass_kv.size(); ++l) {
    LayerKv& lkv = out.layers[l];
    lkv.k = Tensor::TryCreate(act, {retained, kvw}, "kvcache.k");
    lkv.v = Tensor::TryCreate(act, {retained, kvw}, "kvcache.v");
    if (lkv.k.empty() || lkv.v.empty()) {
      return false;
    }
    std::memcpy(lkv.k.data(), pass_kv[l].k.row(row0),
                static_cast<size_t>(retained) * kvw * sizeof(float));
    std::memcpy(lkv.v.data(), pass_kv[l].v.row(row0),
                static_cast<size_t>(retained) * kvw * sizeof(float));
  }
  return true;
}

}  // namespace

Result<PrefillResult> LlamaModel::Prefill(std::span<const int32_t> tokens,
                                          const KvCacheData* cached_prefix,
                                          const PrefillOptions& options,
                                          TrackingAllocator& activations) const {
  const PrefillSequence sequence{tokens, cached_prefix, options.retention,
                                 options.prefix_budget_tokens};
  auto results = PrefillBatch(std::span(&sequence, 1), options, activations);
  if (!results.ok()) {
    return results.status();
  }
  return std::move(results.value().front());
}

Result<std::vector<PrefillResult>> LlamaModel::PrefillBatch(
    std::span<const PrefillSequence> sequences, const PrefillOptions& options,
    TrackingAllocator& activations) const {
  if (sequences.empty()) {
    return Status::InvalidArgument("empty prefill batch");
  }
  std::vector<SeqLayout> layouts;
  layouts.reserve(sequences.size());
  int64_t row0 = 0;
  for (const PrefillSequence& seq : sequences) {
    if (Status s = Validate(seq, options); !s.ok()) {
      return s;
    }
    SeqLayout layout;
    layout.n_total = static_cast<int64_t>(seq.tokens.size());
    layout.n_cached = seq.cached_prefix.n_tokens;
    layout.n_new = layout.n_total - layout.n_cached;
    layout.row0 = row0;
    row0 += layout.n_new;
    layouts.push_back(layout);
  }
  switch (options.mode) {
    case PrefillMode::kStandard:
      return PrefillBatchStandard(sequences, layouts, options, activations);
    case PrefillMode::kChunked:
      return PrefillBatchChunked(sequences, layouts, options, activations);
    case PrefillMode::kHybrid:
      return PrefillBatchHybrid(sequences, layouts, options, activations);
  }
  return Status::Internal("unknown prefill mode");
}

Result<std::vector<PrefillResult>> LlamaModel::PrefillBatchStandard(
    std::span<const PrefillSequence> sequences, std::span<const SeqLayout> layouts,
    const PrefillOptions& options, TrackingAllocator& act) const {
  const size_t n_seqs = sequences.size();
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  const int64_t m_rows = layouts.back().row0 + layouts.back().n_new;
  const bool drop_kv = options.drop_kv_in_pass;

  const BatchStack stack = StackNewRows(sequences);
  assert(stack.m_rows == m_rows);
  const std::vector<int32_t>& tokens = stack.tokens;
  const std::span<const int32_t> positions(stack.positions);
  const int64_t max_total = stack.max_total;
  rope_table_.EnsureCapacity(max_total);

  PO_TRY_ALLOC(hidden, act, "act.hidden", {m_rows, h});
  EmbeddingLookup(embedding_.data(), tokens, hidden.data(), h);

  // Vanilla engines allocate KV for every layer for the whole pass. The
  // drop_kv_in_pass ablation allocates each layer's inside the layer loop.
  std::vector<LayerKv> pass_kv(layers_.size());
  if (!drop_kv) {
    for (size_t l = 0; l < layers_.size(); ++l) {
      pass_kv[l].k = Tensor::TryCreate(act, {m_rows, kvw}, "kv.k");
      pass_kv[l].v = Tensor::TryCreate(act, {m_rows, kvw}, "kv.v");
      if (pass_kv[l].k.empty() || pass_kv[l].v.empty()) {
        return Oom("kv.all_layers");
      }
    }
  }

  // The modeled score-scratch row (matches the activation walker); extra
  // per-thread rows are untracked host scratch so budgets stay
  // machine-independent.
  PO_TRY_ALLOC(scores, act, "attn.scores", {max_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * max_total));

  for (size_t l = 0; l < layers_.size(); ++l) {
    if (Status abort = CheckAbort(options); !abort.ok()) {
      return abort;
    }
    const LayerWeights& w = layers_[l];
    LayerKv& kv = pass_kv[l];
    const bool last = l + 1 == layers_.size();
    // Runs fn(row, count) over the rows of [b, e) this layer computes past
    // K/V.
    const auto live = [&](int64_t b, int64_t e, auto&& fn) {
      ForEachLiveRun(layouts, last, b, e, fn);
    };
    // One row-parallel region over the whole stack per stage: each stage
    // runs between two tracked allocations, which keep their order.
    const auto stage = [&](auto&& fn) {
      ParallelRows(pool_, 0, m_rows, [&](int64_t b, int64_t e) { live(b, e, fn); });
    };

    PO_TRY_ALLOC(normed, act, "act.normed", {m_rows, h});
    PO_TRY_ALLOC(q, act, "act.q", {m_rows, qs});
    if (drop_kv) {
      // The naive §4.1 ablation: this layer's K/V rows for the whole stack
      // live from here to the end of the layer.
      kv.k = Tensor::TryCreate(act, {m_rows, kvw}, "kv.k");
      kv.v = Tensor::TryCreate(act, {m_rows, kvw}, "kv.v");
      if (kv.k.empty() || kv.v.empty()) {
        return Oom("kv.layer");
      }
    }
    ParallelRows(pool_, 0, m_rows, [&](int64_t b, int64_t e) {
      QkvRows(w, hidden.data(), normed.data(), q.data(), kv.k.data(), kv.v.data(),
              positions, b, e, live);
    });
    normed = Tensor();  // free before attention

    // Block-diagonal attention: each sequence's query rows see only its own
    // prefix + new keys.
    PO_TRY_ALLOC(attn_out, act, "act.attn_out", {m_rows, qs});
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const int64_t f0 = lo.live_row0(last);
      Attention(q.row(f0), lo.row_end() - f0, lo.n_cached + (f0 - lo.row0),
                sequences[s].cached_prefix, l, kv.k.row(lo.row0), kv.v.row(lo.row0),
                lo.n_new, attn_out.row(f0), scores.data(),
                extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
    }
    q = Tensor();

    PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {m_rows, h});
    stage([&](int64_t r, int64_t n) {
      MatMulW(attn_out.row(r), w.wo, attn_proj.row(r), n);
      AddInPlace(hidden.row(r), attn_proj.row(r), n * h, nullptr, kops_);
    });
    attn_out = Tensor();
    attn_proj = Tensor();

    PO_TRY_ALLOC(normed2, act, "act.normed", {m_rows, h});
    stage([&](int64_t r, int64_t n) {
      RmsNormRows(hidden.row(r), w.mlp_norm.data(), normed2.row(r), n, h, config_.rms_eps,
                  nullptr, kops_);
    });
    // The Fig. 3/4 spike: [m_rows, 2*intermediate] = 28672 floats/token at
    // Llama-3.1-8B scale, 14x one layer's KV cache.
    PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {m_rows, 2 * inter});
    stage([&](int64_t r, int64_t n) {
      MatMulW(normed2.row(r), w.w_gate_up, gate_up.row(r), n);
    });
    normed2 = Tensor();
    PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {m_rows, inter});
    stage([&](int64_t r, int64_t n) {
      SwiGluRows(gate_up.row(r), mlp_act.row(r), n, inter, nullptr, kops_);
    });
    gate_up = Tensor();
    PO_TRY_ALLOC(down, act, "mlp.down", {m_rows, h});
    stage([&](int64_t r, int64_t n) {
      MatMulW(mlp_act.row(r), w.w_down, down.row(r), n);
      AddInPlace(hidden.row(r), down.row(r), n * h, nullptr, kops_);
    });
    mlp_act = Tensor();
    if (drop_kv) {
      kv = LayerKv();
    }
  }

  std::vector<PrefillResult> results(n_seqs);
  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    PrefillResult& result = results[s];
    result.n_new = lo.n_new;
    result.kv_start = lo.n_cached;
    result.last_logits = LastLogits(hidden.row(lo.row_end() - 1));
    const int64_t retained = RetainedNewTokens(sequences[s], lo.n_cached, lo.n_new);
    if (retained > 0 &&
        !TakeRetainedKv(pass_kv, m_rows, lo.row0, retained, kvw, act, result.kv)) {
      return Oom("kvcache.retained");
    }
  }
  return results;
}

Result<std::vector<PrefillResult>> LlamaModel::PrefillBatchChunked(
    std::span<const PrefillSequence> sequences, std::span<const SeqLayout> layouts,
    const PrefillOptions& options, TrackingAllocator& act) const {
  const size_t n_seqs = sequences.size();
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  const int64_t m_rows = layouts.back().row0 + layouts.back().n_new;
  const int64_t chunk = std::min(options.chunk_size, m_rows);

  const BatchStack stack = StackNewRows(sequences);
  assert(stack.m_rows == m_rows);
  const std::vector<int32_t>& tokens = stack.tokens;
  const std::span<const int32_t> positions(stack.positions);
  const int64_t max_total = stack.max_total;
  rope_table_.EnsureCapacity(max_total);

  // Chunked prefill must keep the KV cache of EVERY layer resident between
  // chunks — later chunks attend to it. This is why it only marginally
  // raises the maximum input length (§2.5).
  std::vector<LayerKv> pass_kv(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    pass_kv[l].k = Tensor::TryCreate(act, {m_rows, kvw}, "kv.k");
    pass_kv[l].v = Tensor::TryCreate(act, {m_rows, kvw}, "kv.v");
    if (pass_kv[l].k.empty() || pass_kv[l].v.empty()) {
      return Oom("kv.all_layers");
    }
  }

  PO_TRY_ALLOC(scores, act, "attn.scores", {max_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * max_total));

  std::vector<PrefillResult> results(n_seqs);
  // Chunks are global over the stacked rows and may span sequence
  // boundaries; linear layers don't care (row-independent) and attention is
  // applied per sequence fragment.
  for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
    if (Status abort = CheckAbort(options); !abort.ok()) {
      return abort;
    }
    const int64_t r1 = std::min(r0 + chunk, m_rows);
    const int64_t cs = r1 - r0;
    const auto chunk_positions =
        positions.subspan(static_cast<size_t>(r0), static_cast<size_t>(cs));

    PO_TRY_ALLOC(hidden_c, act, "act.hidden", {cs, h});
    EmbeddingLookup(embedding_.data(),
                    std::span<const int32_t>(tokens).subspan(
                        static_cast<size_t>(r0), static_cast<size_t>(cs)),
                    hidden_c.data(), h);

    for (size_t l = 0; l < layers_.size(); ++l) {
      const LayerWeights& w = layers_[l];
      const bool last = l + 1 == layers_.size();
      // Runs fn(row, count) over the rows of chunk-local [b, e) the layer
      // computes past K/V, as chunk-local rows.
      const auto live = [&](int64_t b, int64_t e, auto&& fn) {
        ForEachLiveRun(layouts, last, r0 + b, r0 + e,
                       [&](int64_t r, int64_t n) { fn(r - r0, n); });
      };
      // The standard pass's stages, each one region over this chunk.
      const auto stage = [&](auto&& fn) {
        ParallelRows(pool_, 0, cs, [&](int64_t b, int64_t e) { live(b, e, fn); });
      };

      PO_TRY_ALLOC(normed, act, "act.normed", {cs, h});
      PO_TRY_ALLOC(q, act, "act.q", {cs, qs});
      // K/V of this chunk go straight into the resident per-layer cache.
      ParallelRows(pool_, 0, cs, [&](int64_t b, int64_t e) {
        QkvRows(w, hidden_c.data(), normed.data(), q.data(), pass_kv[l].k.row(r0),
                pass_kv[l].v.row(r0), chunk_positions, b, e, live);
      });
      normed = Tensor();

      PO_TRY_ALLOC(attn_out, act, "act.attn_out", {cs, qs});
      for (size_t s = 0; s < n_seqs; ++s) {
        const SeqLayout& lo = layouts[s];
        const int64_t f0 = std::max(r0, lo.live_row0(last));
        const int64_t f1 = std::min(r1, lo.row_end());
        if (f0 >= f1) {
          continue;  // no live row of the sequence in this chunk
        }
        // This fragment's queries attend the sequence's prefix plus its own
        // keys computed so far: rows [lo.row0, f1) of the stacked KV.
        Attention(q.data() + (f0 - r0) * qs, f1 - f0, lo.n_cached + (f0 - lo.row0),
                  sequences[s].cached_prefix, l, pass_kv[l].k.row(lo.row0),
                  pass_kv[l].v.row(lo.row0), f1 - lo.row0, attn_out.data() + (f0 - r0) * qs,
                  scores.data(), extra_scores.empty() ? nullptr : extra_scores.data(),
                  max_total);
      }
      q = Tensor();

      PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {cs, h});
      stage([&](int64_t r, int64_t n) {
        MatMulW(attn_out.row(r), w.wo, attn_proj.row(r), n);
        AddInPlace(hidden_c.row(r), attn_proj.row(r), n * h, nullptr, kops_);
      });
      attn_out = Tensor();
      attn_proj = Tensor();

      PO_TRY_ALLOC(normed2, act, "act.normed", {cs, h});
      stage([&](int64_t r, int64_t n) {
        RmsNormRows(hidden_c.row(r), w.mlp_norm.data(), normed2.row(r), n, h,
                    config_.rms_eps, nullptr, kops_);
      });
      PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {cs, 2 * inter});
      stage([&](int64_t r, int64_t n) {
        MatMulW(normed2.row(r), w.w_gate_up, gate_up.row(r), n);
      });
      normed2 = Tensor();
      PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {cs, inter});
      stage([&](int64_t r, int64_t n) {
        SwiGluRows(gate_up.row(r), mlp_act.row(r), n, inter, nullptr, kops_);
      });
      gate_up = Tensor();
      PO_TRY_ALLOC(down, act, "mlp.down", {cs, h});
      stage([&](int64_t r, int64_t n) {
        MatMulW(mlp_act.row(r), w.w_down, down.row(r), n);
        AddInPlace(hidden_c.row(r), down.row(r), n * h, nullptr, kops_);
      });
      mlp_act = Tensor();
    }

    // Sequences whose final row falls in this chunk read their logits now,
    // before the chunk buffer dies.
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const int64_t final_row = lo.row_end() - 1;
      if (final_row >= r0 && final_row < r1) {
        results[s].last_logits = LastLogits(hidden_c.row(final_row - r0));
      }
    }
  }

  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    PrefillResult& result = results[s];
    result.n_new = lo.n_new;
    result.kv_start = lo.n_cached;
    const int64_t retained = RetainedNewTokens(sequences[s], lo.n_cached, lo.n_new);
    if (retained > 0 &&
        !TakeRetainedKv(pass_kv, m_rows, lo.row0, retained, kvw, act, result.kv)) {
      return Oom("kvcache.retained");
    }
  }
  return results;
}

Result<std::vector<PrefillResult>> LlamaModel::PrefillBatchHybrid(
    std::span<const PrefillSequence> sequences, std::span<const SeqLayout> layouts,
    const PrefillOptions& options, TrackingAllocator& act) const {
  const size_t n_seqs = sequences.size();
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  const int64_t m_rows = layouts.back().row0 + layouts.back().n_new;
  const int64_t chunk = std::min(options.chunk_size, m_rows);
  const bool prealloc = options.preallocate_outputs;
  const bool in_place = options.in_place;

  const BatchStack stack = StackNewRows(sequences);
  assert(stack.m_rows == m_rows);
  const std::vector<int32_t>& tokens = stack.tokens;
  const std::span<const int32_t> positions(stack.positions);
  const int64_t max_total = stack.max_total;
  rope_table_.EnsureCapacity(max_total);

  PO_TRY_ALLOC(hidden, act, "act.hidden", {m_rows, h});
  EmbeddingLookup(embedding_.data(), tokens, hidden.data(), h);

  // Per-sequence retained-prefix KV (suffix discarding): allocated up
  // front, filled per layer before the stacked buffers are reused, and it
  // survives the pass. Everything else KV-related is transient.
  std::vector<int64_t> retained(n_seqs, 0);
  std::vector<KvCacheData> result_kv(n_seqs);
  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    retained[s] = RetainedNewTokens(sequences[s], lo.n_cached, lo.n_new);
    if (retained[s] > 0) {
      result_kv[s].n_tokens = retained[s];
      result_kv[s].layers.resize(layers_.size());
      for (auto& lkv : result_kv[s].layers) {
        lkv.k = Tensor::TryCreate(act, {retained[s], kvw}, "kvcache.k");
        lkv.v = Tensor::TryCreate(act, {retained[s], kvw}, "kvcache.v");
        if (lkv.k.empty() || lkv.v.empty()) {
          return Oom("kvcache.retained");
        }
      }
    }
  }

  // Whole-stack buffers reused across layers: one layer's K/V at a time
  // (the paper's "KV cache of only the last computed layer"), plus Q and
  // the attention output.
  PO_TRY_ALLOC(k_buf, act, "kv.k.current_layer", {m_rows, kvw});
  PO_TRY_ALLOC(v_buf, act, "kv.v.current_layer", {m_rows, kvw});
  PO_TRY_ALLOC(q_buf, act, "act.q", {m_rows, qs});
  PO_TRY_ALLOC(attn_out, act, "act.attn_out", {m_rows, qs});
  PO_TRY_ALLOC(normed, act, "act.normed", {m_rows, h});
  PO_TRY_ALLOC(scores, act, "attn.scores", {max_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * max_total));

  // Without in-place reuse, linear-layer outputs need their own
  // whole-stack buffer.
  Tensor proj_buf;
  if (prealloc && !in_place) {
    proj_buf = Tensor::TryCreate(act, {m_rows, h}, "act.proj");
    if (proj_buf.empty()) {
      return Oom("act.proj");
    }
  }

  // The ablation without preallocation (§4.3): each chunk's output is its
  // own tensor, computed as one region over the chunk's rows by
  // `chain(b, e, t, out_b)` (t = b's row in the chunk, out_b = the output
  // row of row b). The pieces are then concatenated into a fresh
  // whole-stack `proj_buf`: the transient 2x output footprint that
  // preallocation removes. The chains already consumed each piece, so the
  // concatenation is pure footprint.
  auto per_chunk_outputs = [&](const char* tag, auto&& chain) -> Status {
    std::vector<Tensor> pieces;
    for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
      if (Status abort = CheckAbort(options); !abort.ok()) {
        return abort;
      }
      const int64_t cs = std::min(chunk, m_rows - r0);
      Tensor piece = Tensor::TryCreate(act, {cs, h}, tag);
      if (piece.empty()) {
        return Oom(tag);
      }
      ParallelRows(pool_, r0, r0 + cs, [&](int64_t b, int64_t e) {
        chain(b, e, b - r0, piece.row(b - r0));
      });
      pieces.push_back(std::move(piece));
    }
    proj_buf = Tensor();
    PO_TRY_ALLOC(full, act, tag, {m_rows, h});
    int64_t r0 = 0;
    for (Tensor& piece : pieces) {
      std::memcpy(full.row(r0), piece.data(), piece.bytes());
      r0 += piece.rows();
      piece = Tensor();
    }
    proj_buf = std::move(full);
    return Status::Ok();
  };

  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerWeights& w = layers_[l];
    const bool last = l + 1 == layers_.size();
    // Runs fn(row, count) over the rows of [b, e) this layer computes past
    // K/V.
    const auto live = [&](int64_t b, int64_t e, auto&& fn) {
      ForEachLiveRun(layouts, last, b, e, fn);
    };

    // Region 1: attention norm, QKV projections and RoPE, chunk by chunk,
    // written straight into the preallocated whole-stack buffers (chunking
    // + preallocation).
    const auto region1 = [&](const RowSlice& slice) {
      slice.ForEachChunk([&](int64_t b, int64_t e, int64_t /*t*/) {
        QkvRows(w, hidden.data(), normed.data(), q_buf.data(), k_buf.data(), v_buf.data(),
                positions, b, e, live);
      });
    };
    if (Status s = RunRowRegion(pool_, 0, m_rows, chunk, &options, region1); !s.ok()) {
      return s;
    }

    // Region 2: attention runs UNCHUNKED over each whole sequence — the
    // "hybrid" in hybrid prefilling: chunking attention would degrade
    // kernel efficiency (the chunked-prefill baseline's flaw), while linear
    // layers chunk for free. Across sequences it is block-diagonal; each
    // sequence is one fork-join of its own (Attention).
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const int64_t f0 = lo.live_row0(last);
      Attention(q_buf.row(f0), lo.row_end() - f0, lo.n_cached + (f0 - lo.row0),
                sequences[s].cached_prefix, l, k_buf.row(lo.row0), v_buf.row(lo.row0),
                lo.n_new, attn_out.row(f0), scores.data(),
                extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
    }

    // Retain each sequence's prefix slice of this layer's KV before the
    // buffers are reused: suffix KV cache discarding in action.
    for (size_t s = 0; s < n_seqs; ++s) {
      if (retained[s] > 0) {
        const SeqLayout& lo = layouts[s];
        std::memcpy(result_kv[s].layers[l].k.data(), k_buf.row(lo.row0),
                    static_cast<size_t>(retained[s]) * kvw * sizeof(float));
        std::memcpy(result_kv[s].layers[l].v.data(), v_buf.row(lo.row0),
                    static_cast<size_t>(retained[s]) * kvw * sizeof(float));
      }
    }

    // Region 3's two chains over rows [b, e), `out_b` being row b of the
    // output. With in_place the output rows are `normed`'s (dead after
    // QKV): the o-proj output is added to the residual before the MLP norm
    // overwrites those rows, and gate_up reads a run's normed rows BEFORE
    // down writes over them — the relative-position argument of §4.3 (row
    // i of the output lands exactly where row i of the input lived).
    const auto o_proj_chain = [&](int64_t b, int64_t e, float* out_b) {
      live(b, e, [&](int64_t r, int64_t n) {
        float* out = out_b + (r - b) * h;
        MatMulW(attn_out.row(r), w.wo, out, n);
        AddInPlace(hidden.row(r), out, n * h, nullptr, kops_);
        RmsNormRows(hidden.row(r), w.mlp_norm.data(), normed.row(r), n, h,
                    config_.rms_eps, nullptr, kops_);
      });
    };
    // The MLP virtual layer (gate_up -> SwiGLU -> down) + residual; `gate_up`
    // and `mlp_act` are rows of the [chunk, ...] temporaries for row b.
    const auto mlp_chain = [&](int64_t b, int64_t e, float* gate_up, float* mlp_act,
                               float* out_b) {
      live(b, e, [&](int64_t r, int64_t n) {
        float* gu = gate_up + (r - b) * 2 * inter;
        float* a = mlp_act + (r - b) * inter;
        float* out = out_b + (r - b) * h;
        MatMulW(normed.row(r), w.w_gate_up, gu, n);
        SwiGluRows(gu, a, n, inter, nullptr, kops_);
        MatMulW(a, w.w_down, out, n);
        AddInPlace(hidden.row(r), out, n * h, nullptr, kops_);
      });
    };

    // The [chunk, 2*intermediate] MLP temporaries replace the [m_rows,
    // 2*inter] spike of the standard pass; each thread uses its slice's
    // rows of them.
    if (prealloc) {
      Tensor& out = in_place ? normed : proj_buf;
      PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {chunk, 2 * inter});
      PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {chunk, inter});
      // Region 3: o-proj, residual, MLP norm, then the MLP chunk by chunk.
      // Both walks poll, as two chunked linears do.
      const auto region3 = [&](const RowSlice& slice) {
        if (slice.ForEachChunk([&](int64_t b, int64_t e, int64_t /*t*/) {
              o_proj_chain(b, e, out.row(b));
            })) {
          slice.ForEachChunk([&](int64_t b, int64_t e, int64_t t) {
            mlp_chain(b, e, gate_up_c.row(t), mlp_act_c.row(t), out.row(b));
          });
        }
      };
      if (Status s = RunRowRegion(pool_, 0, m_rows, chunk, &options, region3); !s.ok()) {
        return s;
      }
    } else {
      if (Status s = per_chunk_outputs(
              "act.attn_proj", [&](int64_t b, int64_t e, int64_t /*t*/, float* out_b) {
                o_proj_chain(b, e, out_b);
              });
          !s.ok()) {
        return s;
      }
      PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {chunk, 2 * inter});
      PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {chunk, inter});
      if (Status s = per_chunk_outputs(
              "mlp.down", [&](int64_t b, int64_t e, int64_t t, float* out_b) {
                mlp_chain(b, e, gate_up_c.row(t), mlp_act_c.row(t), out_b);
              });
          !s.ok()) {
        return s;
      }
    }
  }

  std::vector<PrefillResult> results(n_seqs);
  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    PrefillResult& result = results[s];
    result.n_new = lo.n_new;
    result.kv_start = lo.n_cached;
    result.last_logits = LastLogits(hidden.row(lo.row_end() - 1));
    result.kv = std::move(result_kv[s]);
  }
  return results;
}

#undef PO_TRY_ALLOC

}  // namespace prefillonly
