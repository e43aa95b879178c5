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

// Sets `var` to a budget-checked activation tensor; returns
// kResourceExhausted from the enclosing function when the allocator budget
// would be exceeded. The shape goes last so brace-lists with commas work.
#define PO_TRY_ALLOC(var, alloc, tag, ...)          \
  var = Tensor::TryCreate(alloc, __VA_ARGS__, tag); \
  if (var.empty()) {                                \
    return Oom(tag);                                \
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
  if (options.mode != PrefillMode::kStandard && options.mode != PrefillMode::kChunked &&
      options.mode != PrefillMode::kHybrid) {
    return Status::InvalidArgument("unknown prefill mode");
  }
  if (options.chunk_size <= 0 && options.mode != PrefillMode::kStandard) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  const bool drop_kv = options.ablation == PrefillAblation::kDropKvPerLayer;
  if (options.ablation != PrefillAblation::kNone &&
      options.mode != (drop_kv ? PrefillMode::kStandard : PrefillMode::kHybrid)) {
    return Status::InvalidArgument("the ablation belongs to another prefill mode");
  }
  if (drop_kv && seq.retention != KvRetention::kNone) {
    return Status::InvalidArgument("kDropKvPerLayer cannot retain KV");
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
    const size_t bytes = static_cast<size_t>(retained) * kvw * sizeof(float);
    std::memcpy(lkv.k.data(), pass_kv[l].k.row(row0), bytes);
    std::memcpy(lkv.v.data(), pass_kv[l].v.row(row0), bytes);
  }
  return true;
}

// How a pass walks the stack. The three modes and their ablations are
// settings of one loop nest (LlamaModel::PrefillBatch), derived from
// PrefillOptions by ScheduleFor; no caller sets them.
struct PassSchedule {
  // Rows per step of the outer loop, each step running every layer: the
  // whole stack, or chunk_size rows (chunked prefill).
  int64_t span = 0;
  // Rows per chunk of the head's row region and of a fused tail.
  int64_t chunk = 0;
  enum class Kv {
    kAllLayers,     // every layer's K/V resident for the whole pass
    kPerLayer,      // each layer's allocated inside the layer (drop-KV)
    kCurrentLayer,  // one buffer, overwritten by every layer
  } kv = Kv::kAllLayers;
  enum class Tail {
    kStaged,     // one whole-span tensor and one region per linear op
    kInPlace,    // fused polled regions writing over the norm rows (§4.3)
    kOwnBuffer,  // fused, writing a whole-stack buffer of its own
    kPerChunk,   // fused, one tensor per chunk, concatenated after
  } tail = Tail::kStaged;
  // Where abort_check is polled: before every layer, before every span, or
  // before every chunk inside the regions.
  enum class Poll { kLayer, kSpan, kChunk } poll = Poll::kLayer;
};

PassSchedule ScheduleFor(const PrefillOptions& options, int64_t m_rows) {
  using S = PassSchedule;
  const int64_t chunk = std::min(options.chunk_size, m_rows);
  switch (options.mode) {
    case PrefillMode::kStandard:
      return {m_rows, m_rows,
              options.ablation == PrefillAblation::kDropKvPerLayer ? S::Kv::kPerLayer
                                                                   : S::Kv::kAllLayers,
              S::Tail::kStaged, S::Poll::kLayer};
    case PrefillMode::kChunked:
      return {chunk, chunk, S::Kv::kAllLayers, S::Tail::kStaged, S::Poll::kSpan};
    case PrefillMode::kHybrid:
      return {m_rows, chunk, S::Kv::kCurrentLayer,
              options.ablation == PrefillAblation::kNoInPlace       ? S::Tail::kOwnBuffer
              : options.ablation == PrefillAblation::kNoPreallocate ? S::Tail::kPerChunk
                                                                    : S::Tail::kInPlace,
              S::Poll::kChunk};
  }
  assert(false);  // Validate rejects any other mode
  return {};
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
    TrackingAllocator& act) const {
  if (sequences.empty()) {
    return Status::InvalidArgument("empty prefill batch");
  }
  // The stacked rows: the new tokens of all sequences in order, each row's
  // absolute (per-sequence) RoPE position, and the longest sequence (the
  // score-scratch stride).
  const size_t n_seqs = sequences.size();
  std::vector<SeqLayout> layouts;
  std::vector<int32_t> tokens;
  std::vector<int32_t> positions;
  int64_t m_rows = 0;
  int64_t max_total = 0;
  for (const PrefillSequence& seq : sequences) {
    if (Status s = Validate(seq, options); !s.ok()) {
      return s;
    }
    SeqLayout layout;
    layout.n_total = static_cast<int64_t>(seq.tokens.size());
    layout.n_cached = seq.cached_prefix.n_tokens;
    layout.n_new = layout.n_total - layout.n_cached;
    layout.row0 = m_rows;
    m_rows += layout.n_new;
    max_total = std::max(max_total, layout.n_total);
    layouts.push_back(layout);
    for (int64_t i = layout.n_cached; i < layout.n_total; ++i) {
      tokens.push_back(seq.tokens[static_cast<size_t>(i)]);
      positions.push_back(static_cast<int32_t>(i));
    }
  }
  rope_table_.EnsureCapacity(max_total);
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  using Kv = PassSchedule::Kv;
  using Tail = PassSchedule::Tail;
  using Poll = PassSchedule::Poll;
  const PassSchedule sched = ScheduleFor(options, m_rows);
  const bool staged = sched.tail == Tail::kStaged;
  const PrefillOptions* region_polls = sched.poll == Poll::kChunk ? &options : nullptr;

  // The residual stream: a one-span schedule holds the whole stack's rows
  // for the pass, allocated first; otherwise each span holds its own.
  const bool one_span = sched.span == m_rows;
  Tensor stack_hidden;
  if (one_span) {
    PO_TRY_ALLOC(stack_hidden, act, "act.hidden", {m_rows, h});
  }

  // Retained KV (suffix discarding). The next layer overwrites a
  // current-layer K/V buffer, so each sequence's retained rows are copied
  // out of it layer by layer, into tensors made up front that survive the
  // pass. Resident K/V is handed over at the end instead (TakeRetainedKv).
  std::vector<PrefillResult> results(n_seqs);
  std::vector<int64_t> retained(n_seqs);
  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    results[s].n_new = lo.n_new;
    results[s].kv_start = lo.n_cached;
    retained[s] = RetainedNewTokens(sequences[s], lo.n_cached, lo.n_new);
    if (sched.kv == Kv::kCurrentLayer && retained[s] > 0) {
      results[s].kv.n_tokens = retained[s];
      results[s].kv.layers.resize(layers_.size());
      for (LayerKv& lkv : results[s].kv.layers) {
        PO_TRY_ALLOC(lkv.k, act, "kvcache.k", {retained[s], kvw});
        PO_TRY_ALLOC(lkv.v, act, "kvcache.v", {retained[s], kvw});
      }
    }
  }

  // K/V of every layer resident for the whole pass (vanilla engines; and
  // chunked prefill, whose later chunks attend to it, which is why it only
  // marginally raises the maximum input length, §2.5); or one buffer that
  // every layer reuses (hybrid: the "KV cache of only the last computed
  // layer"); or, in the naive drop ablation (§4.1), each layer's allocated
  // inside the layer.
  std::vector<LayerKv> pass_kv(sched.kv == Kv::kCurrentLayer ? 1 : layers_.size());
  if (sched.kv != Kv::kPerLayer) {
    const bool current = sched.kv == Kv::kCurrentLayer;
    for (LayerKv& kv : pass_kv) {
      PO_TRY_ALLOC(kv.k, act, current ? "kv.k.current_layer" : "kv.k", {m_rows, kvw});
      PO_TRY_ALLOC(kv.v, act, current ? "kv.v.current_layer" : "kv.v", {m_rows, kvw});
    }
  }

  // Q, the attention output and the norm buffer: a staged tail allocates
  // them per layer, a fused one keeps whole-stack ones for the pass.
  Tensor q;
  Tensor attn_out;
  Tensor normed;
  if (!staged) {
    PO_TRY_ALLOC(q, act, "act.q", {m_rows, qs});
    PO_TRY_ALLOC(attn_out, act, "act.attn_out", {m_rows, qs});
    PO_TRY_ALLOC(normed, act, "act.normed", {m_rows, h});
  }
  // The modeled score-scratch row (matches the activation walker); extra
  // per-thread rows are untracked host scratch so budgets stay
  // machine-independent.
  Tensor scores;
  PO_TRY_ALLOC(scores, act, "attn.scores", {max_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * max_total));
  // The output rows of an own-buffer tail; a per-chunk tail's latest
  // concatenation.
  Tensor proj;
  if (sched.tail == Tail::kOwnBuffer) {
    PO_TRY_ALLOC(proj, act, "act.proj", {m_rows, h});
  }

  // Spans are global over the stacked rows and may cross sequence
  // boundaries: linear layers are row-independent, and attention runs per
  // sequence fragment. Buffers of span rows are indexed span-locally; K/V
  // by stacked row.
  for (int64_t r0 = 0; r0 < m_rows; r0 += sched.span) {
    if (sched.poll == Poll::kSpan) {
      if (Status abort = CheckAbort(options); !abort.ok()) {
        return abort;
      }
    }
    const int64_t r1 = std::min(r0 + sched.span, m_rows);
    const int64_t rows = r1 - r0;
    const auto span_of = [&](const std::vector<int32_t>& v) {
      return std::span<const int32_t>(v).subspan(static_cast<size_t>(r0),
                                                 static_cast<size_t>(rows));
    };
    Tensor span_hidden;
    if (!one_span) {
      PO_TRY_ALLOC(span_hidden, act, "act.hidden", {rows, h});
    }
    Tensor& hidden = one_span ? stack_hidden : span_hidden;
    EmbeddingLookup(embedding_.data(), span_of(tokens), hidden.data(), h);

    for (size_t l = 0; l < layers_.size(); ++l) {
      if (sched.poll == Poll::kLayer) {
        if (Status abort = CheckAbort(options); !abort.ok()) {
          return abort;
        }
      }
      const LayerWeights& w = layers_[l];
      const bool last = l + 1 == layers_.size();
      LayerKv& kv = pass_kv[sched.kv == Kv::kCurrentLayer ? 0 : l];
      // Runs fn(row, count) over the rows of span-local [b, e) this layer
      // computes past K/V, as span-local rows.
      const auto live = [&](int64_t b, int64_t e, auto&& fn) {
        ForEachLiveRun(layouts, last, r0 + b, r0 + e,
                       [&](int64_t r, int64_t n) { fn(r - r0, n); });
      };

      // Head: attention norm, Q/K/V and RoPE as one row region, K/V
      // written straight into the layer's K/V rows; polled chunk by chunk
      // under a fused tail.
      if (staged) {
        PO_TRY_ALLOC(normed, act, "act.normed", {rows, h});
        PO_TRY_ALLOC(q, act, "act.q", {rows, qs});
      }
      if (sched.kv == Kv::kPerLayer) {
        PO_TRY_ALLOC(kv.k, act, "kv.k", {m_rows, kvw});
        PO_TRY_ALLOC(kv.v, act, "kv.v", {m_rows, kvw});
      }
      const auto head = [&](const RowSlice& slice) {
        slice.ForEachChunk([&](int64_t b, int64_t e, int64_t /*t*/) {
          QkvRows(w, hidden.data(), normed.data(), q.data(), kv.k.row(r0), kv.v.row(r0),
                  span_of(positions), b, e, live);
        });
      };
      if (Status s = RunRowRegion(pool_, 0, rows, sched.chunk, region_polls, head);
          !s.ok()) {
        return s;
      }
      if (staged) {
        normed = Tensor();
        PO_TRY_ALLOC(attn_out, act, "act.attn_out", {rows, qs});
      }

      // Attention, block-diagonal: each sequence's live rows in the span
      // attend its prefix plus its own keys computed so far, rows
      // [lo.row0, f1) of the stacked K/V; one fork-join per sequence. Over
      // a one-span schedule each sequence runs whole: the "hybrid" in
      // hybrid prefilling, since chunking attention would degrade kernel
      // efficiency (the chunked-prefill baseline's flaw), while linear
      // layers chunk for free.
      for (size_t s = 0; s < n_seqs; ++s) {
        const SeqLayout& lo = layouts[s];
        const int64_t f0 = std::max(r0, lo.live_row0(last));
        const int64_t f1 = std::min(r1, lo.row_end());
        if (f0 < f1) {
          Attention(q.row(f0 - r0), f1 - f0, lo.n_cached + (f0 - lo.row0),
                    sequences[s].cached_prefix, l, kv.k.row(lo.row0), kv.v.row(lo.row0),
                    f1 - lo.row0, attn_out.row(f0 - r0), scores.data(),
                    extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
        }
      }
      if (staged) {
        q = Tensor();
      }
      if (sched.kv == Kv::kCurrentLayer) {
        for (size_t s = 0; s < n_seqs; ++s) {
          if (retained[s] > 0) {
            const size_t bytes = static_cast<size_t>(retained[s]) * kvw * sizeof(float);
            std::memcpy(results[s].kv.layers[l].k.data(), kv.k.row(layouts[s].row0), bytes);
            std::memcpy(results[s].kv.layers[l].v.data(), kv.v.row(layouts[s].row0), bytes);
          }
        }
      }

      if (staged) {
        // Staged tail: each op is one region over the span between two
        // tracked allocations, which keep their order and so the Fig. 3a
        // spikes.
        const auto stage = [&](auto&& fn) {
          ParallelRows(pool_, 0, rows, [&](int64_t b, int64_t e) { live(b, e, fn); });
        };
        Tensor attn_proj;
        Tensor gate_up;
        Tensor mlp_act;
        Tensor down;
        PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {rows, h});
        stage([&](int64_t r, int64_t n) {
          MatMulW(attn_out.row(r), w.wo, attn_proj.row(r), n);
          AddInPlace(hidden.row(r), attn_proj.row(r), n * h, nullptr, kops_);
        });
        attn_out = Tensor();
        attn_proj = Tensor();
        PO_TRY_ALLOC(normed, act, "act.normed", {rows, h});
        stage([&](int64_t r, int64_t n) {
          RmsNormRows(hidden.row(r), w.mlp_norm.data(), normed.row(r), n, h, config_.rms_eps,
                      nullptr, kops_);
        });
        // The Fig. 3/4 spike: [rows, 2*intermediate] = 28672 floats/token at
        // Llama-3.1-8B scale, 14x one layer's KV cache.
        PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {rows, 2 * inter});
        stage([&](int64_t r, int64_t n) {
          MatMulW(normed.row(r), w.w_gate_up, gate_up.row(r), n);
        });
        normed = Tensor();
        PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {rows, inter});
        stage([&](int64_t r, int64_t n) {
          SwiGluRows(gate_up.row(r), mlp_act.row(r), n, inter, nullptr, kops_);
        });
        gate_up = Tensor();
        PO_TRY_ALLOC(down, act, "mlp.down", {rows, h});
        stage([&](int64_t r, int64_t n) {
          MatMulW(mlp_act.row(r), w.w_down, down.row(r), n);
          AddInPlace(hidden.row(r), down.row(r), n * h, nullptr, kops_);
        });
        mlp_act = Tensor();
        if (sched.kv == Kv::kPerLayer) {
          kv = LayerKv();
        }
        continue;
      }

      // Fused tail, two chains over rows [b, e), `out_b` being row b of the
      // output. In place, the output rows are `normed`'s (dead after QKV):
      // the o-proj output is added to the residual before the MLP norm
      // overwrites those rows, and gate_up reads a run's normed rows BEFORE
      // down writes over them — the relative-position argument of §4.3
      // (row i of the output lands exactly where row i of the input lived).
      const auto o_proj_chain = [&](int64_t b, int64_t e, float* out_b) {
        live(b, e, [&](int64_t r, int64_t n) {
          float* out = out_b + (r - b) * h;
          MatMulW(attn_out.row(r), w.wo, out, n);
          AddInPlace(hidden.row(r), out, n * h, nullptr, kops_);
          RmsNormRows(hidden.row(r), w.mlp_norm.data(), normed.row(r), n, h,
                      config_.rms_eps, nullptr, kops_);
        });
      };
      // The MLP virtual layer (gate_up -> SwiGLU -> down) + residual;
      // `gate_up` and `mlp_act` are rows of the [chunk, ...] temporaries for
      // row b.
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
      // The [chunk, 2*intermediate] MLP temporaries replace the staged
      // tail's [rows, 2*inter] spike; each thread uses its slice's rows.
      Tensor gate_up_c;
      Tensor mlp_act_c;
      if (sched.tail != Tail::kPerChunk) {
        Tensor& out = sched.tail == Tail::kInPlace ? normed : proj;
        PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {sched.chunk, 2 * inter});
        PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {sched.chunk, inter});
        // One region: o-proj, residual, MLP norm, then the MLP, chunk by
        // chunk. Both walks poll, as two chunked linears do.
        const auto tail = [&](const RowSlice& slice) {
          if (slice.ForEachChunk([&](int64_t b, int64_t e, int64_t /*t*/) {
                o_proj_chain(b, e, out.row(b));
              })) {
            slice.ForEachChunk([&](int64_t b, int64_t e, int64_t t) {
              mlp_chain(b, e, gate_up_c.row(t), mlp_act_c.row(t), out.row(b));
            });
          }
        };
        if (Status s = RunRowRegion(pool_, 0, rows, sched.chunk, region_polls, tail);
            !s.ok()) {
          return s;
        }
        continue;
      }
      // The ablation without preallocation (§4.3): each chunk's output is
      // its own tensor, computed as one region over the chunk's rows by
      // `chain(b, e, t, out_b)` (t = b's row in the chunk). The pieces are
      // then concatenated into a fresh whole-stack `proj`: the transient 2x
      // output footprint that preallocation removes. The chains already
      // consumed each piece, so the concatenation is pure footprint.
      const auto per_chunk_outputs = [&](const char* tag, auto&& chain) -> Status {
        std::vector<Tensor> pieces;
        for (int64_t c0 = 0; c0 < rows; c0 += sched.chunk) {
          if (Status abort = CheckAbort(options); !abort.ok()) {
            return abort;
          }
          const int64_t cs = std::min(sched.chunk, rows - c0);
          Tensor piece;
          PO_TRY_ALLOC(piece, act, tag, {cs, h});
          ParallelRows(pool_, c0, c0 + cs, [&](int64_t b, int64_t e) {
            chain(b, e, b - c0, piece.row(b - c0));
          });
          pieces.push_back(std::move(piece));
        }
        proj = Tensor();
        Tensor full;
        PO_TRY_ALLOC(full, act, tag, {rows, h});
        int64_t c0 = 0;
        for (Tensor& piece : pieces) {
          std::memcpy(full.row(c0), piece.data(), piece.bytes());
          c0 += piece.rows();
          piece = Tensor();
        }
        proj = std::move(full);
        return Status::Ok();
      };
      if (Status s = per_chunk_outputs("act.attn_proj",
                                       [&](int64_t b, int64_t e, int64_t /*t*/,
                                           float* out_b) { o_proj_chain(b, e, out_b); });
          !s.ok()) {
        return s;
      }
      PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {sched.chunk, 2 * inter});
      PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {sched.chunk, inter});
      if (Status s = per_chunk_outputs(
              "mlp.down", [&](int64_t b, int64_t e, int64_t t, float* out_b) {
                mlp_chain(b, e, gate_up_c.row(t), mlp_act_c.row(t), out_b);
              });
          !s.ok()) {
        return s;
      }
    }

    // Sequences whose final row falls in this span read their logits now,
    // before the span's rows die.
    for (size_t s = 0; s < n_seqs; ++s) {
      const int64_t final_row = layouts[s].row_end() - 1;
      if (final_row >= r0 && final_row < r1) {
        results[s].last_logits = LastLogits(hidden.row(final_row - r0));
      }
    }
  }

  if (sched.kv == Kv::kAllLayers) {
    for (size_t s = 0; s < n_seqs; ++s) {
      if (retained[s] > 0 && !TakeRetainedKv(pass_kv, m_rows, layouts[s].row0, retained[s],
                                             kvw, act, results[s].kv)) {
        return Oom("kvcache.retained");
      }
    }
  }
  return results;
}

#undef PO_TRY_ALLOC

}  // namespace prefillonly
