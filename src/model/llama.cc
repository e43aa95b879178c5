#include "src/model/llama.h"

#include <algorithm>
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

// Normalized prefix pointer: null when absent or empty.
const KvCacheData* SeqPrefix(const PrefillSequence& seq) {
  return (seq.cached_prefix != nullptr && !seq.cached_prefix->empty())
             ? seq.cached_prefix
             : nullptr;
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

void LlamaModel::MatMulW(const float* a, const Weight& w, float* c,
                         int64_t m) const {
  if (!w.packed.empty()) {
    MatMulPacked(a, w.packed, c, m, pool_, kops_);
  } else {
    MatMul(a, w.dense.data(), c, m, w.dense.dim(0), w.dense.dim(1), pool_, kops_);
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
  if (const KvCacheData* prefix = SeqPrefix(seq); prefix != nullptr) {
    if (prefix->n_tokens >= static_cast<int64_t>(seq.tokens.size())) {
      return Status::InvalidArgument(
          "cached prefix must be shorter than the request: the last token's "
          "logits are always recomputed");
    }
    if (prefix->layers.size() != layers_.size()) {
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
                           const LayerKv* prefix, const float* k_new,
                           const float* v_new, int64_t new_rows, float* out,
                           float* scores, float* extra_scores,
                           int64_t scores_stride) const {
  const int64_t n_heads = config_.n_heads;
  const int64_t group = n_heads / config_.n_kv_heads;
  const int64_t n_prefix = (prefix != nullptr) ? prefix->k.rows() : 0;
  assert(q_pos0 + q_rows <= scores_stride);
  assert(q_pos0 + q_rows - n_prefix <= new_rows);
  const AttentionArgs args{
      q,
      out,
      prefix != nullptr ? prefix->k.data() : nullptr,
      prefix != nullptr ? prefix->v.data() : nullptr,
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
  const int shards = pool_ != nullptr ? pool_->num_threads() : 1;
  if (shards == 1 || work < 2) {
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
  std::vector<int64_t> bounds(static_cast<size_t>(shards) + 1, 0);
  bounds[static_cast<size_t>(shards)] = work;
  for (int s = 1; s < shards; ++s) {
    const int64_t target = total * s / shards;
    int64_t lo = bounds[static_cast<size_t>(s) - 1];  // monotone bounds
    int64_t hi = work;
    while (lo < hi) {  // smallest idx with cum_cost(idx) >= target
      const int64_t mid = lo + (hi - lo) / 2;
      if (cum_cost(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[static_cast<size_t>(s)] = lo;
  }
  pool_->ParallelFor(shards, /*grain=*/1, [&](int64_t s0, int64_t s1, int worker) {
    for (int64_t s = s0; s < s1; ++s) {
      body(bounds[static_cast<size_t>(s)], bounds[static_cast<size_t>(s) + 1], worker);
    }
  });
}

std::vector<float> LlamaModel::LastLogits(const float* hidden_row) const {
  const int64_t h = config_.hidden_size;
  std::vector<float> normed(static_cast<size_t>(h));
  RmsNormRows(hidden_row, final_norm_.data(), normed.data(), 1, h, config_.rms_eps,
              nullptr, kops_);
  std::vector<float> logits(static_cast<size_t>(config_.vocab_size));
  MatMulW(normed.data(), lm_head_, logits.data(), 1);
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
    const KvCacheData* prefix = SeqPrefix(seq);
    const auto n_total = static_cast<int64_t>(seq.tokens.size());
    const int64_t n_cached = (prefix != nullptr) ? prefix->n_tokens : 0;
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
    const KvCacheData* prefix = SeqPrefix(seq);
    SeqLayout layout;
    layout.n_total = static_cast<int64_t>(seq.tokens.size());
    layout.n_cached = (prefix != nullptr) ? prefix->n_tokens : 0;
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
    // Runs fn(row, count) over the rows this layer computes past K/V.
    const auto live = [&](auto&& fn) { ForEachLiveRun(layouts, last, 0, m_rows, fn); };

    PO_TRY_ALLOC(normed, act, "act.normed", {m_rows, h});
    RmsNormRows(hidden.data(), w.attn_norm.data(), normed.data(), m_rows, h,
                config_.rms_eps, pool_, kops_);

    PO_TRY_ALLOC(q, act, "act.q", {m_rows, qs});
    live([&](int64_t r, int64_t n) { MatMulW(normed.row(r), w.wq, q.row(r), n); });
    if (drop_kv) {
      // The naive §4.1 ablation: this layer's K/V rows for the whole stack
      // live from here to the end of the layer.
      kv.k = Tensor::TryCreate(act, {m_rows, kvw}, "kv.k");
      kv.v = Tensor::TryCreate(act, {m_rows, kvw}, "kv.v");
      if (kv.k.empty() || kv.v.empty()) {
        return Oom("kv.layer");
      }
    }
    MatMulW(normed.data(), w.wk, kv.k.data(), m_rows);
    MatMulW(normed.data(), w.wv, kv.v.data(), m_rows);
    normed = Tensor();  // free before attention

    live([&](int64_t r, int64_t n) {
      ApplyRopeWithTable(q.row(r), n, config_.n_heads, config_.head_dim,
                         positions.subspan(static_cast<size_t>(r), static_cast<size_t>(n)),
                         rope_table_, pool_);
    });
    ApplyRopeWithTable(kv.k.data(), m_rows, config_.n_kv_heads, config_.head_dim,
                       positions, rope_table_, pool_);

    // Block-diagonal attention: each sequence's query rows see only its own
    // prefix + new keys.
    PO_TRY_ALLOC(attn_out, act, "act.attn_out", {m_rows, qs});
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const KvCacheData* prefix = SeqPrefix(sequences[s]);
      const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;
      const int64_t f0 = lo.live_row0(last);
      Attention(q.row(f0), lo.row_end() - f0, lo.n_cached + (f0 - lo.row0), layer_prefix,
                kv.k.row(lo.row0), kv.v.row(lo.row0), lo.n_new, attn_out.row(f0),
                scores.data(), extra_scores.empty() ? nullptr : extra_scores.data(),
                max_total);
    }
    q = Tensor();

    PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {m_rows, h});
    live([&](int64_t r, int64_t n) {
      MatMulW(attn_out.row(r), w.wo, attn_proj.row(r), n);
      AddInPlace(hidden.row(r), attn_proj.row(r), n * h, pool_, kops_);
    });
    attn_out = Tensor();
    attn_proj = Tensor();

    PO_TRY_ALLOC(normed2, act, "act.normed", {m_rows, h});
    live([&](int64_t r, int64_t n) {
      RmsNormRows(hidden.row(r), w.mlp_norm.data(), normed2.row(r), n, h, config_.rms_eps,
                  pool_, kops_);
    });
    // The Fig. 3/4 spike: [m_rows, 2*intermediate] = 28672 floats/token at
    // Llama-3.1-8B scale, 14x one layer's KV cache.
    PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {m_rows, 2 * inter});
    live([&](int64_t r, int64_t n) {
      MatMulW(normed2.row(r), w.w_gate_up, gate_up.row(r), n);
    });
    normed2 = Tensor();
    PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {m_rows, inter});
    live([&](int64_t r, int64_t n) {
      SwiGluRows(gate_up.row(r), mlp_act.row(r), n, inter, pool_, kops_);
    });
    gate_up = Tensor();
    PO_TRY_ALLOC(down, act, "mlp.down", {m_rows, h});
    live([&](int64_t r, int64_t n) {
      MatMulW(mlp_act.row(r), w.w_down, down.row(r), n);
      AddInPlace(hidden.row(r), down.row(r), n * h, pool_, kops_);
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
      // Runs fn(row, count) over the rows of this chunk the layer computes
      // past K/V, as chunk-local rows.
      const auto live = [&](auto&& fn) {
        ForEachLiveRun(layouts, last, r0, r1,
                       [&](int64_t r, int64_t n) { fn(r - r0, n); });
      };

      PO_TRY_ALLOC(normed, act, "act.normed", {cs, h});
      RmsNormRows(hidden_c.data(), w.attn_norm.data(), normed.data(), cs, h,
                  config_.rms_eps, pool_, kops_);

      PO_TRY_ALLOC(q, act, "act.q", {cs, qs});
      live([&](int64_t r, int64_t n) { MatMulW(normed.row(r), w.wq, q.row(r), n); });
      // K/V of this chunk go straight into the resident per-layer cache.
      MatMulW(normed.data(), w.wk, pass_kv[l].k.row(r0), cs);
      MatMulW(normed.data(), w.wv, pass_kv[l].v.row(r0), cs);
      normed = Tensor();

      live([&](int64_t r, int64_t n) {
        ApplyRopeWithTable(q.row(r), n, config_.n_heads, config_.head_dim,
                           chunk_positions.subspan(static_cast<size_t>(r),
                                                   static_cast<size_t>(n)),
                           rope_table_, pool_);
      });
      ApplyRopeWithTable(pass_kv[l].k.row(r0), cs, config_.n_kv_heads,
                         config_.head_dim, chunk_positions, rope_table_, pool_);

      PO_TRY_ALLOC(attn_out, act, "act.attn_out", {cs, qs});
      for (size_t s = 0; s < n_seqs; ++s) {
        const SeqLayout& lo = layouts[s];
        const int64_t f0 = std::max(r0, lo.live_row0(last));
        const int64_t f1 = std::min(r1, lo.row_end());
        if (f0 >= f1) {
          continue;  // no live row of the sequence in this chunk
        }
        const KvCacheData* prefix = SeqPrefix(sequences[s]);
        const LayerKv* layer_prefix =
            (prefix != nullptr) ? &prefix->layers[l] : nullptr;
        // This fragment's queries attend the sequence's prefix plus its own
        // keys computed so far: rows [lo.row0, f1) of the stacked KV.
        Attention(q.data() + (f0 - r0) * qs, f1 - f0, lo.n_cached + (f0 - lo.row0),
                  layer_prefix, pass_kv[l].k.row(lo.row0), pass_kv[l].v.row(lo.row0),
                  f1 - lo.row0, attn_out.data() + (f0 - r0) * qs, scores.data(),
                  extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
      }
      q = Tensor();

      PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {cs, h});
      live([&](int64_t r, int64_t n) {
        MatMulW(attn_out.row(r), w.wo, attn_proj.row(r), n);
        AddInPlace(hidden_c.row(r), attn_proj.row(r), n * h, pool_, kops_);
      });
      attn_out = Tensor();
      attn_proj = Tensor();

      PO_TRY_ALLOC(normed2, act, "act.normed", {cs, h});
      live([&](int64_t r, int64_t n) {
        RmsNormRows(hidden_c.row(r), w.mlp_norm.data(), normed2.row(r), n, h,
                    config_.rms_eps, pool_, kops_);
      });
      PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {cs, 2 * inter});
      live([&](int64_t r, int64_t n) {
        MatMulW(normed2.row(r), w.w_gate_up, gate_up.row(r), n);
      });
      normed2 = Tensor();
      PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {cs, inter});
      live([&](int64_t r, int64_t n) {
        SwiGluRows(gate_up.row(r), mlp_act.row(r), n, inter, pool_, kops_);
      });
      gate_up = Tensor();
      PO_TRY_ALLOC(down, act, "mlp.down", {cs, h});
      live([&](int64_t r, int64_t n) {
        MatMulW(mlp_act.row(r), w.w_down, down.row(r), n);
        AddInPlace(hidden_c.row(r), down.row(r), n * h, pool_, kops_);
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

  // Runs `fn(r0, cs, out_rows)` for each row chunk, where out_rows points at
  // the output buffer's chunk rows. Chunks are global over the stacked rows
  // (row-independent linear layers make the chunk grid bitwise-invisible).
  // Emulates the three ablation levels:
  //  - prealloc: write chunks straight into the final buffer;
  //  - no prealloc: materialize per-chunk outputs, then concatenate — the
  //    transient 2x output footprint hybrid prefilling's preallocation
  //    optimization removes (§4.3).
  // Returns the buffer holding the full [m_rows, width] output.
  auto chunked_linear = [&](int64_t width, Tensor* reuse, const char* tag,
                            auto&& fn) -> Result<Tensor*> {
    if (prealloc) {
      Tensor* out = reuse;
      for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
        if (Status abort = CheckAbort(options); !abort.ok()) {
          return abort;
        }
        const int64_t cs = std::min(chunk, m_rows - r0);
        fn(r0, cs, out->row(r0));
      }
      return out;
    }
    // Ablation path: per-chunk tensors then concatenate.
    std::vector<Tensor> pieces;
    for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
      if (Status abort = CheckAbort(options); !abort.ok()) {
        return abort;
      }
      const int64_t cs = std::min(chunk, m_rows - r0);
      Tensor piece = Tensor::TryCreate(act, {cs, width}, tag);
      if (piece.empty()) {
        return Oom(tag);
      }
      fn(r0, cs, piece.data());
      pieces.push_back(std::move(piece));
    }
    *reuse = Tensor();  // the reuse target is not written on this path
    Tensor full = Tensor::TryCreate(act, {m_rows, width}, tag);
    if (full.empty()) {
      return Oom(tag);
    }
    int64_t r0 = 0;
    for (Tensor& piece : pieces) {
      std::memcpy(full.row(r0), piece.data(), piece.bytes());
      r0 += piece.rows();
      piece = Tensor();
    }
    *reuse = std::move(full);
    return reuse;
  };

  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerWeights& w = layers_[l];
    const bool last = l + 1 == layers_.size();
    // Runs fn(row, count) over the rows of [r0, r1) this layer computes
    // past K/V.
    const auto live = [&](int64_t r0, int64_t r1, auto&& fn) {
      ForEachLiveRun(layouts, last, r0, r1, fn);
    };

    RmsNormRows(hidden.data(), w.attn_norm.data(), normed.data(), m_rows, h,
                config_.rms_eps, pool_, kops_);

    // QKV projections: linear, so chunked; outputs written directly into the
    // preallocated whole-stack buffers (chunking + preallocation).
    for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
      if (Status abort = CheckAbort(options); !abort.ok()) {
        return abort;
      }
      const int64_t cs = std::min(chunk, m_rows - r0);
      live(r0, r0 + cs, [&](int64_t r, int64_t n) {
        MatMulW(normed.row(r), w.wq, q_buf.row(r), n);
      });
      MatMulW(normed.row(r0), w.wk, k_buf.row(r0), cs);
      MatMulW(normed.row(r0), w.wv, v_buf.row(r0), cs);
    }
    live(0, m_rows, [&](int64_t r, int64_t n) {
      ApplyRopeWithTable(q_buf.row(r), n, config_.n_heads, config_.head_dim,
                         positions.subspan(static_cast<size_t>(r), static_cast<size_t>(n)),
                         rope_table_, pool_);
    });
    ApplyRopeWithTable(k_buf.data(), m_rows, config_.n_kv_heads, config_.head_dim,
                       positions, rope_table_, pool_);

    // Attention runs UNCHUNKED over each whole sequence — the "hybrid" in
    // hybrid prefilling: chunking attention would degrade kernel efficiency
    // (the chunked-prefill baseline's flaw), while linear layers chunk for
    // free. Across sequences it is block-diagonal.
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const KvCacheData* prefix = SeqPrefix(sequences[s]);
      const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;
      const int64_t f0 = lo.live_row0(last);
      Attention(q_buf.row(f0), lo.row_end() - f0, lo.n_cached + (f0 - lo.row0),
                layer_prefix, k_buf.row(lo.row0), v_buf.row(lo.row0), lo.n_new,
                attn_out.row(f0), scores.data(),
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

    // Output projection: linear -> chunked. With in_place, the `normed`
    // buffer (dead after QKV) is reused as the output.
    Tensor* o_target = in_place ? &normed : &proj_buf;
    auto o_proj = chunked_linear(
        h, o_target, "act.attn_proj", [&](int64_t r0, int64_t cs, float* out) {
          live(r0, r0 + cs, [&](int64_t r, int64_t n) {
            MatMulW(attn_out.row(r), w.wo, out + (r - r0) * h, n);
          });
        });
    if (!o_proj.ok()) {
      return o_proj.status();
    }
    // With in_place the o-proj output lives in `normed`: each run adds it
    // to the residual before the MLP norm overwrites those rows.
    live(0, m_rows, [&](int64_t r, int64_t n) {
      AddInPlace(hidden.row(r), o_proj.value()->row(r), n * h, pool_, kops_);
      RmsNormRows(hidden.row(r), w.mlp_norm.data(), normed.row(r), n, h, config_.rms_eps,
                  pool_, kops_);
    });

    // MLP virtual layer (gate_up -> SwiGLU -> down), chunk-by-chunk. The
    // [chunk, 2*intermediate] temporaries replace the [m_rows, 2*inter]
    // spike of the standard pass.
    PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {chunk, 2 * inter});
    PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {chunk, inter});
    Tensor* mlp_target = in_place ? &normed : &proj_buf;
    auto mlp_out = chunked_linear(
        h, mlp_target, "mlp.down", [&](int64_t r0, int64_t cs, float* out) {
          // When in_place, `out` aliases normed.row(r0): gate_up reads a
          // run's normed rows BEFORE down writes over them, so the
          // aliasing is safe — this is the relative-position argument of
          // §4.3 (row i of the output lands exactly where row i of the
          // input lived).
          live(r0, r0 + cs, [&](int64_t r, int64_t n) {
            MatMulW(normed.row(r), w.w_gate_up, gate_up_c.data(), n);
            SwiGluRows(gate_up_c.data(), mlp_act_c.data(), n, inter, pool_, kops_);
            MatMulW(mlp_act_c.data(), w.w_down, out + (r - r0) * h, n);
          });
        });
    if (!mlp_out.ok()) {
      return mlp_out.status();
    }
    live(0, m_rows, [&](int64_t r, int64_t n) {
      AddInPlace(hidden.row(r), mlp_out.value()->row(r), n * h, pool_, kops_);
    });
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
