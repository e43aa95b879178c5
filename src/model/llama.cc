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

Status LlamaModel::Validate(std::span<const int32_t> tokens,
                            const KvCacheData* cached_prefix,
                            const PrefillOptions& options) const {
  if (tokens.empty()) {
    return Status::InvalidArgument("empty token sequence");
  }
  for (int32_t t : tokens) {
    if (t < 0 || t >= config_.vocab_size) {
      return Status::InvalidArgument("token id out of vocabulary range");
    }
  }
  if (cached_prefix != nullptr && !cached_prefix->empty()) {
    if (cached_prefix->n_tokens >= static_cast<int64_t>(tokens.size())) {
      return Status::InvalidArgument(
          "cached prefix must be shorter than the request: the last token's "
          "logits are always recomputed");
    }
    if (cached_prefix->layers.size() != layers_.size()) {
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
    if (options.retention != KvRetention::kNone) {
      return Status::InvalidArgument("drop_kv_in_pass cannot retain KV");
    }
  }
  if (options.retention == KvRetention::kPrefixBudget &&
      options.prefix_budget_tokens < 0) {
    return Status::InvalidArgument("negative prefix budget");
  }
  return Status::Ok();
}

Result<PrefillResult> LlamaModel::Prefill(std::span<const int32_t> tokens,
                                          const KvCacheData* cached_prefix,
                                          const PrefillOptions& options,
                                          TrackingAllocator& activations) const {
  if (Status s = Validate(tokens, cached_prefix, options); !s.ok()) {
    return s;
  }
  const KvCacheData* prefix =
      (cached_prefix != nullptr && !cached_prefix->empty()) ? cached_prefix : nullptr;
  switch (options.mode) {
    case PrefillMode::kStandard:
      return PrefillStandard(tokens, prefix, options, activations);
    case PrefillMode::kChunked:
      return PrefillChunked(tokens, prefix, options, activations);
    case PrefillMode::kHybrid:
      return PrefillHybrid(tokens, prefix, options, activations);
  }
  return Status::Internal("unknown prefill mode");
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

std::vector<float> LlamaModel::LastLogits(const float* hidden_row,
                                          TrackingAllocator& act) const {
  (void)act;  // the two row-sized buffers below are negligible
  const int64_t h = config_.hidden_size;
  std::vector<float> normed(static_cast<size_t>(h));
  RmsNormRows(hidden_row, final_norm_.data(), normed.data(), 1, h, config_.rms_eps,
              nullptr, kops_);
  std::vector<float> logits(static_cast<size_t>(config_.vocab_size));
  MatMulW(normed.data(), lm_head_, logits.data(), 1);
  return logits;
}

namespace {

// Shared retention bookkeeping: how many of the `n_new` freshly computed
// tokens (starting at absolute position n_cached) should be kept.
int64_t RetainedNewTokens(const PrefillOptions& options, int64_t n_cached,
                          int64_t n_new) {
  switch (options.retention) {
    case KvRetention::kNone:
      return 0;
    case KvRetention::kAll:
      return n_new;
    case KvRetention::kPrefixBudget:
      return std::clamp<int64_t>(options.prefix_budget_tokens - n_cached, 0, n_new);
  }
  return 0;
}

}  // namespace

Result<PrefillResult> LlamaModel::PrefillStandard(std::span<const int32_t> tokens,
                                                  const KvCacheData* prefix,
                                                  const PrefillOptions& options,
                                                  TrackingAllocator& act) const {
  const int64_t n_total = static_cast<int64_t>(tokens.size());
  const int64_t n_cached = (prefix != nullptr) ? prefix->n_tokens : 0;
  const int64_t n_new = n_total - n_cached;
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;

  std::vector<int32_t> positions(static_cast<size_t>(n_new));
  for (int64_t i = 0; i < n_new; ++i) {
    positions[static_cast<size_t>(i)] = static_cast<int32_t>(n_cached + i);
  }
  rope_table_.EnsureCapacity(n_total);

  PO_TRY_ALLOC(hidden, act, "act.hidden", {n_new, h});
  EmbeddingLookup(embedding_.data(), tokens.subspan(static_cast<size_t>(n_cached)),
                  hidden.data(), h);

  // Vanilla engines allocate KV for every layer for the whole pass.
  std::vector<LayerKv> pass_kv;
  if (!options.drop_kv_in_pass) {
    pass_kv.resize(layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l) {
      pass_kv[l].k = Tensor::TryCreate(act, {n_new, kvw}, "kv.k");
      pass_kv[l].v = Tensor::TryCreate(act, {n_new, kvw}, "kv.v");
      if (pass_kv[l].k.empty() || pass_kv[l].v.empty()) {
        return Oom("kv.all_layers");
      }
    }
  }

  // The modeled score-scratch row (matches the seed trace and the
  // activation walker); extra per-thread rows are untracked host scratch so
  // budgets stay machine-independent.
  PO_TRY_ALLOC(scores, act, "attn.scores", {n_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * n_total));

  for (size_t l = 0; l < layers_.size(); ++l) {
    if (Status abort = CheckAbort(options); !abort.ok()) {
      return abort;
    }
    const LayerWeights& w = layers_[l];
    const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;

    PO_TRY_ALLOC(normed, act, "act.normed", {n_new, h});
    RmsNormRows(hidden.data(), w.attn_norm.data(), normed.data(), n_new, h,
                config_.rms_eps, pool_, kops_);

    PO_TRY_ALLOC(q, act, "act.q", {n_new, qs});
    MatMulW(normed.data(), w.wq, q.data(), n_new);

    Tensor k_local;
    Tensor v_local;
    Tensor* k_layer = nullptr;
    Tensor* v_layer = nullptr;
    if (options.drop_kv_in_pass) {
      k_local = Tensor::TryCreate(act, {n_new, kvw}, "kv.k");
      v_local = Tensor::TryCreate(act, {n_new, kvw}, "kv.v");
      if (k_local.empty() || v_local.empty()) {
        return Oom("kv.layer");
      }
      k_layer = &k_local;
      v_layer = &v_local;
    } else {
      k_layer = &pass_kv[l].k;
      v_layer = &pass_kv[l].v;
    }
    MatMulW(normed.data(), w.wk, k_layer->data(), n_new);
    MatMulW(normed.data(), w.wv, v_layer->data(), n_new);
    normed = Tensor();  // free before attention

    ApplyRopeWithTable(q.data(), n_new, config_.n_heads, config_.head_dim, positions,
                       rope_table_, pool_);
    ApplyRopeWithTable(k_layer->data(), n_new, config_.n_kv_heads, config_.head_dim,
                       positions, rope_table_, pool_);

    PO_TRY_ALLOC(attn_out, act, "act.attn_out", {n_new, qs});
    Attention(q.data(), n_new, n_cached, layer_prefix, k_layer->data(),
              v_layer->data(), n_new, attn_out.data(), scores.data(),
              extra_scores.empty() ? nullptr : extra_scores.data(), n_total);
    q = Tensor();

    PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {n_new, h});
    MatMulW(attn_out.data(), w.wo, attn_proj.data(), n_new);
    attn_out = Tensor();
    AddInPlace(hidden.data(), attn_proj.data(), n_new * h, pool_, kops_);
    attn_proj = Tensor();

    PO_TRY_ALLOC(normed2, act, "act.normed", {n_new, h});
    RmsNormRows(hidden.data(), w.mlp_norm.data(), normed2.data(), n_new, h,
                config_.rms_eps, pool_, kops_);
    // The Fig. 3/4 spike: [n_new, 2*intermediate] = 28672 floats/token at
    // Llama-3.1-8B scale, 14x one layer's KV cache.
    PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {n_new, 2 * inter});
    MatMulW(normed2.data(), w.w_gate_up, gate_up.data(), n_new);
    normed2 = Tensor();
    PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {n_new, inter});
    SwiGluRows(gate_up.data(), mlp_act.data(), n_new, inter, pool_, kops_);
    gate_up = Tensor();
    PO_TRY_ALLOC(down, act, "mlp.down", {n_new, h});
    MatMulW(mlp_act.data(), w.w_down, down.data(), n_new);
    mlp_act = Tensor();
    AddInPlace(hidden.data(), down.data(), n_new * h, pool_, kops_);
  }

  PrefillResult result;
  result.n_new = n_new;
  result.kv_start = n_cached;
  result.last_logits = LastLogits(hidden.row(n_new - 1), act);

  const int64_t retained = RetainedNewTokens(options, n_cached, n_new);
  if (retained > 0) {
    KvCacheData fresh;
    fresh.n_tokens = n_new;
    fresh.layers = std::move(pass_kv);
    if (retained == n_new) {
      result.kv = std::move(fresh);
    } else {
      result.kv = SliceKv(fresh, retained, act);
    }
  }
  return result;
}

Result<PrefillResult> LlamaModel::PrefillChunked(std::span<const int32_t> tokens,
                                                 const KvCacheData* prefix,
                                                 const PrefillOptions& options,
                                                 TrackingAllocator& act) const {
  const int64_t n_total = static_cast<int64_t>(tokens.size());
  const int64_t n_cached = (prefix != nullptr) ? prefix->n_tokens : 0;
  const int64_t n_new = n_total - n_cached;
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  const int64_t chunk = std::min(options.chunk_size, n_new);

  // Chunked prefill must keep the KV cache of EVERY layer resident between
  // chunks — later chunks attend to it. This is why it only marginally
  // raises the maximum input length (§2.5).
  std::vector<LayerKv> pass_kv(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    pass_kv[l].k = Tensor::TryCreate(act, {n_new, kvw}, "kv.k");
    pass_kv[l].v = Tensor::TryCreate(act, {n_new, kvw}, "kv.v");
    if (pass_kv[l].k.empty() || pass_kv[l].v.empty()) {
      return Oom("kv.all_layers");
    }
  }

  rope_table_.EnsureCapacity(n_total);
  PO_TRY_ALLOC(scores, act, "attn.scores", {n_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * n_total));

  std::vector<float> last_logits;
  for (int64_t r0 = 0; r0 < n_new; r0 += chunk) {
    if (Status abort = CheckAbort(options); !abort.ok()) {
      return abort;
    }
    const int64_t r1 = std::min(r0 + chunk, n_new);
    const int64_t cs = r1 - r0;

    std::vector<int32_t> positions(static_cast<size_t>(cs));
    for (int64_t i = 0; i < cs; ++i) {
      positions[static_cast<size_t>(i)] = static_cast<int32_t>(n_cached + r0 + i);
    }

    PO_TRY_ALLOC(hidden_c, act, "act.hidden", {cs, h});
    EmbeddingLookup(embedding_.data(),
                    tokens.subspan(static_cast<size_t>(n_cached + r0),
                                   static_cast<size_t>(cs)),
                    hidden_c.data(), h);

    for (size_t l = 0; l < layers_.size(); ++l) {
      const LayerWeights& w = layers_[l];
      const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;

      PO_TRY_ALLOC(normed, act, "act.normed", {cs, h});
      RmsNormRows(hidden_c.data(), w.attn_norm.data(), normed.data(), cs, h,
                  config_.rms_eps, pool_, kops_);

      PO_TRY_ALLOC(q, act, "act.q", {cs, qs});
      MatMulW(normed.data(), w.wq, q.data(), cs);
      // K/V of this chunk go straight into the resident per-layer cache.
      MatMulW(normed.data(), w.wk, pass_kv[l].k.row(r0), cs);
      MatMulW(normed.data(), w.wv, pass_kv[l].v.row(r0), cs);
      normed = Tensor();

      ApplyRopeWithTable(q.data(), cs, config_.n_heads, config_.head_dim, positions,
                         rope_table_, pool_);
      ApplyRopeWithTable(pass_kv[l].k.row(r0), cs, config_.n_kv_heads,
                         config_.head_dim, positions, rope_table_, pool_);

      PO_TRY_ALLOC(attn_out, act, "act.attn_out", {cs, qs});
      Attention(q.data(), cs, n_cached + r0, layer_prefix, pass_kv[l].k.data(),
                pass_kv[l].v.data(), r1, attn_out.data(), scores.data(),
                extra_scores.empty() ? nullptr : extra_scores.data(), n_total);
      q = Tensor();

      PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {cs, h});
      MatMulW(attn_out.data(), w.wo, attn_proj.data(), cs);
      attn_out = Tensor();
      AddInPlace(hidden_c.data(), attn_proj.data(), cs * h, pool_, kops_);
      attn_proj = Tensor();

      PO_TRY_ALLOC(normed2, act, "act.normed", {cs, h});
      RmsNormRows(hidden_c.data(), w.mlp_norm.data(), normed2.data(), cs, h,
                  config_.rms_eps, pool_, kops_);
      PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {cs, 2 * inter});
      MatMulW(normed2.data(), w.w_gate_up, gate_up.data(), cs);
      normed2 = Tensor();
      PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {cs, inter});
      SwiGluRows(gate_up.data(), mlp_act.data(), cs, inter, pool_, kops_);
      gate_up = Tensor();
      PO_TRY_ALLOC(down, act, "mlp.down", {cs, h});
      MatMulW(mlp_act.data(), w.w_down, down.data(), cs);
      mlp_act = Tensor();
      AddInPlace(hidden_c.data(), down.data(), cs * h, pool_, kops_);
    }

    if (r1 == n_new) {
      last_logits = LastLogits(hidden_c.row(cs - 1), act);
    }
  }

  PrefillResult result;
  result.n_new = n_new;
  result.kv_start = n_cached;
  result.last_logits = std::move(last_logits);

  const int64_t retained = RetainedNewTokens(options, n_cached, n_new);
  if (retained > 0) {
    KvCacheData fresh;
    fresh.n_tokens = n_new;
    fresh.layers = std::move(pass_kv);
    if (retained == n_new) {
      result.kv = std::move(fresh);
    } else {
      result.kv = SliceKv(fresh, retained, act);
    }
  }
  return result;
}

Result<PrefillResult> LlamaModel::PrefillHybrid(std::span<const int32_t> tokens,
                                                const KvCacheData* prefix,
                                                const PrefillOptions& options,
                                                TrackingAllocator& act) const {
  const int64_t n_total = static_cast<int64_t>(tokens.size());
  const int64_t n_cached = (prefix != nullptr) ? prefix->n_tokens : 0;
  const int64_t n_new = n_total - n_cached;
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  const int64_t chunk = std::min(options.chunk_size, n_new);
  const bool prealloc = options.preallocate_outputs;
  const bool in_place = options.in_place;

  std::vector<int32_t> positions(static_cast<size_t>(n_new));
  for (int64_t i = 0; i < n_new; ++i) {
    positions[static_cast<size_t>(i)] = static_cast<int32_t>(n_cached + i);
  }
  rope_table_.EnsureCapacity(n_total);

  PO_TRY_ALLOC(hidden, act, "act.hidden", {n_new, h});
  EmbeddingLookup(embedding_.data(), tokens.subspan(static_cast<size_t>(n_cached)),
                  hidden.data(), h);

  // Retained-prefix KV (suffix discarding): allocated up front, filled per
  // layer, survives the pass. Everything else KV-related is transient.
  const int64_t retained = RetainedNewTokens(options, n_cached, n_new);
  KvCacheData result_kv;
  if (retained > 0) {
    result_kv.n_tokens = retained;
    result_kv.layers.resize(layers_.size());
    for (auto& lkv : result_kv.layers) {
      lkv.k = Tensor::TryCreate(act, {retained, kvw}, "kvcache.k");
      lkv.v = Tensor::TryCreate(act, {retained, kvw}, "kvcache.v");
      if (lkv.k.empty() || lkv.v.empty()) {
        return Oom("kvcache.retained");
      }
    }
  }

  // Whole-sequence buffers reused across layers: one layer's K/V at a time
  // (the paper's "KV cache of only the last computed layer"), plus Q and
  // the attention output.
  PO_TRY_ALLOC(k_buf, act, "kv.k.current_layer", {n_new, kvw});
  PO_TRY_ALLOC(v_buf, act, "kv.v.current_layer", {n_new, kvw});
  PO_TRY_ALLOC(q_buf, act, "act.q", {n_new, qs});
  PO_TRY_ALLOC(attn_out, act, "act.attn_out", {n_new, qs});
  PO_TRY_ALLOC(normed, act, "act.normed", {n_new, h});
  PO_TRY_ALLOC(scores, act, "attn.scores", {n_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * n_total));

  // Without in-place reuse, linear-layer outputs need their own
  // full-sequence buffer.
  Tensor proj_buf;
  if (prealloc && !in_place) {
    proj_buf = Tensor::TryCreate(act, {n_new, h}, "act.proj");
    if (proj_buf.empty()) {
      return Oom("act.proj");
    }
  }

  // Runs `fn(r0, cs, out_rows)` for each row chunk, where out_rows points at
  // the output buffer's chunk rows. Emulates the three ablation levels:
  //  - prealloc: write chunks straight into the final buffer;
  //  - no prealloc: materialize per-chunk outputs, then concatenate — the
  //    transient 2x output footprint hybrid prefilling's preallocation
  //    optimization removes (§4.3).
  // Returns the buffer holding the full [n_new, width] output.
  auto chunked_linear = [&](int64_t width, Tensor* reuse, const char* tag,
                            auto&& fn) -> Result<Tensor*> {
    if (prealloc) {
      Tensor* out = reuse;
      for (int64_t r0 = 0; r0 < n_new; r0 += chunk) {
        if (Status abort = CheckAbort(options); !abort.ok()) {
          return abort;
        }
        const int64_t cs = std::min(chunk, n_new - r0);
        if (Status s = fn(r0, cs, out->row(r0)); !s.ok()) {
          return s;
        }
      }
      return out;
    }
    // Ablation path: per-chunk tensors then concatenate.
    std::vector<Tensor> pieces;
    for (int64_t r0 = 0; r0 < n_new; r0 += chunk) {
      if (Status abort = CheckAbort(options); !abort.ok()) {
        return abort;
      }
      const int64_t cs = std::min(chunk, n_new - r0);
      Tensor piece = Tensor::TryCreate(act, {cs, width}, tag);
      if (piece.empty()) {
        return Oom(tag);
      }
      if (Status s = fn(r0, cs, piece.data()); !s.ok()) {
        return s;
      }
      pieces.push_back(std::move(piece));
    }
    *reuse = Tensor();  // mirror: reuse target not used on this path
    Tensor full = Tensor::TryCreate(act, {n_new, width}, tag);
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
    const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;

    RmsNormRows(hidden.data(), w.attn_norm.data(), normed.data(), n_new, h,
                config_.rms_eps, pool_, kops_);

    // QKV projections: linear, so chunked; outputs written directly into the
    // preallocated whole-sequence buffers (chunking + preallocation).
    for (int64_t r0 = 0; r0 < n_new; r0 += chunk) {
      if (Status abort = CheckAbort(options); !abort.ok()) {
        return abort;
      }
      const int64_t cs = std::min(chunk, n_new - r0);
      MatMulW(normed.row(r0), w.wq, q_buf.row(r0), cs);
      MatMulW(normed.row(r0), w.wk, k_buf.row(r0), cs);
      MatMulW(normed.row(r0), w.wv, v_buf.row(r0), cs);
    }
    ApplyRopeWithTable(q_buf.data(), n_new, config_.n_heads, config_.head_dim,
                       positions, rope_table_, pool_);
    ApplyRopeWithTable(k_buf.data(), n_new, config_.n_kv_heads, config_.head_dim,
                       positions, rope_table_, pool_);

    // Attention runs UNCHUNKED over the full sequence — the "hybrid" in
    // hybrid prefilling: chunking attention would degrade kernel efficiency
    // (the chunked-prefill baseline's flaw), while linear layers chunk for
    // free.
    Attention(q_buf.data(), n_new, n_cached, layer_prefix, k_buf.data(), v_buf.data(),
              n_new, attn_out.data(), scores.data(),
              extra_scores.empty() ? nullptr : extra_scores.data(), n_total);

    // Retain the prefix slice of this layer's KV before the buffers are
    // reused: this is suffix KV cache discarding in action.
    if (retained > 0) {
      std::memcpy(result_kv.layers[l].k.data(), k_buf.data(),
                  static_cast<size_t>(retained) * kvw * sizeof(float));
      std::memcpy(result_kv.layers[l].v.data(), v_buf.data(),
                  static_cast<size_t>(retained) * kvw * sizeof(float));
    }

    // Output projection: linear -> chunked. With in_place, the `normed`
    // buffer (dead after QKV) is reused as the output.
    Tensor* o_target = in_place ? &normed : &proj_buf;
    auto o_proj =
        chunked_linear(h, o_target, "act.attn_proj",
                       [&](int64_t r0, int64_t cs, float* out) -> Status {
                         MatMulW(attn_out.row(r0), w.wo, out, cs);
                         return Status::Ok();
                       });
    if (!o_proj.ok()) {
      return o_proj.status();
    }
    AddInPlace(hidden.data(), o_proj.value()->data(), n_new * h, pool_, kops_);

    RmsNormRows(hidden.data(), w.mlp_norm.data(), normed.data(), n_new, h,
                config_.rms_eps, pool_, kops_);

    // MLP virtual layer (gate_up -> SwiGLU -> down), chunk-by-chunk. The
    // [chunk, 2*intermediate] temporaries replace the [n_new, 2*inter]
    // spike of the standard path.
    PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {chunk, 2 * inter});
    PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {chunk, inter});
    Tensor* mlp_target = in_place ? &normed : &proj_buf;
    auto mlp_out = chunked_linear(
        h, mlp_target, "mlp.down",
        [&](int64_t r0, int64_t cs, float* out) -> Status {
          // When in_place, `out` aliases normed.row(r0): gate_up reads the
          // chunk's normed rows BEFORE down writes over them, so the
          // aliasing is safe — this is the relative-position argument of
          // §4.3 (chunk i of the output lands exactly where chunk i of the
          // input lived).
          MatMulW(normed.row(r0), w.w_gate_up, gate_up_c.data(), cs);
          SwiGluRows(gate_up_c.data(), mlp_act_c.data(), cs, inter, pool_, kops_);
          MatMulW(mlp_act_c.data(), w.w_down, out, cs);
          return Status::Ok();
        });
    if (!mlp_out.ok()) {
      return mlp_out.status();
    }
    AddInPlace(hidden.data(), mlp_out.value()->data(), n_new * h, pool_, kops_);
  }

  PrefillResult result;
  result.n_new = n_new;
  result.kv_start = n_cached;
  result.last_logits = LastLogits(hidden.row(n_new - 1), act);
  if (retained > 0) {
    result.kv = std::move(result_kv);
  }
  return result;
}

// ------------------------------------------------------------------------
// Continuous batching (ISSUE 4): stacked-row prefill over several sequences.
// ------------------------------------------------------------------------

namespace {

// Per-sequence retention under the PrefillSequence fields (the batch
// analogue of RetainedNewTokens over PrefillOptions).
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

// Normalized prefix pointer: null when absent or empty.
const KvCacheData* SeqPrefix(const PrefillSequence& seq) {
  return (seq.cached_prefix != nullptr && !seq.cached_prefix->empty())
             ? seq.cached_prefix
             : nullptr;
}

// The stacked-row geometry every batched mode shares: the new tokens of all
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

// Copies stacked pass-KV rows [row0, row0 + retained) of every layer into a
// fresh per-sequence KvCacheData; false on arena exhaustion.
bool SliceRetainedKv(const std::vector<LayerKv>& pass_kv, int64_t row0,
                     int64_t retained, int64_t kvw, TrackingAllocator& act,
                     KvCacheData& out) {
  out.n_tokens = retained;
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

Result<std::vector<PrefillResult>> LlamaModel::PrefillBatch(
    std::span<const PrefillSequence> sequences, const PrefillOptions& options,
    TrackingAllocator& activations) const {
  if (sequences.empty()) {
    return Status::InvalidArgument("empty prefill batch");
  }
  if (options.drop_kv_in_pass) {
    return Status::InvalidArgument(
        "drop_kv_in_pass is a solo-pass ablation; invalid in a batch");
  }
  std::vector<SeqLayout> layouts;
  layouts.reserve(sequences.size());
  int64_t row0 = 0;
  for (const PrefillSequence& seq : sequences) {
    // Per-sequence validation reuses the solo rules with this sequence's
    // retention substituted into the shared options.
    PrefillOptions seq_options = options;
    seq_options.retention = seq.retention;
    seq_options.prefix_budget_tokens = seq.prefix_budget_tokens;
    const KvCacheData* prefix = SeqPrefix(seq);
    if (Status s = Validate(seq.tokens, prefix, seq_options); !s.ok()) {
      return s;
    }
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
  (void)options;
  const size_t n_seqs = sequences.size();
  const int64_t h = config_.hidden_size;
  const int64_t qs = config_.q_size();
  const int64_t kvw = config_.kv_size();
  const int64_t inter = config_.intermediate_size;
  const int64_t m_rows = layouts.back().row0 + layouts.back().n_new;

  const BatchStack stack = StackNewRows(sequences);
  assert(stack.m_rows == m_rows);
  const std::vector<int32_t>& tokens = stack.tokens;
  const std::vector<int32_t>& positions = stack.positions;
  const int64_t max_total = stack.max_total;
  rope_table_.EnsureCapacity(max_total);

  PO_TRY_ALLOC(hidden, act, "act.hidden", {m_rows, h});
  EmbeddingLookup(embedding_.data(), tokens, hidden.data(), h);

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

  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerWeights& w = layers_[l];

    PO_TRY_ALLOC(normed, act, "act.normed", {m_rows, h});
    RmsNormRows(hidden.data(), w.attn_norm.data(), normed.data(), m_rows, h,
                config_.rms_eps, pool_, kops_);

    PO_TRY_ALLOC(q, act, "act.q", {m_rows, qs});
    MatMulW(normed.data(), w.wq, q.data(), m_rows);
    MatMulW(normed.data(), w.wk, pass_kv[l].k.data(), m_rows);
    MatMulW(normed.data(), w.wv, pass_kv[l].v.data(), m_rows);
    normed = Tensor();

    ApplyRopeWithTable(q.data(), m_rows, config_.n_heads, config_.head_dim, positions,
                       rope_table_, pool_);
    ApplyRopeWithTable(pass_kv[l].k.data(), m_rows, config_.n_kv_heads,
                       config_.head_dim, positions, rope_table_, pool_);

    // Block-diagonal attention: each sequence's query rows see only its own
    // prefix + new keys. Per-element computation identical to the solo pass.
    PO_TRY_ALLOC(attn_out, act, "act.attn_out", {m_rows, qs});
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const KvCacheData* prefix = SeqPrefix(sequences[s]);
      const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;
      Attention(q.row(lo.row0), lo.n_new, lo.n_cached, layer_prefix,
                pass_kv[l].k.row(lo.row0), pass_kv[l].v.row(lo.row0), lo.n_new,
                attn_out.row(lo.row0), scores.data(),
                extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
    }
    q = Tensor();

    PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {m_rows, h});
    MatMulW(attn_out.data(), w.wo, attn_proj.data(), m_rows);
    attn_out = Tensor();
    AddInPlace(hidden.data(), attn_proj.data(), m_rows * h, pool_, kops_);
    attn_proj = Tensor();

    PO_TRY_ALLOC(normed2, act, "act.normed", {m_rows, h});
    RmsNormRows(hidden.data(), w.mlp_norm.data(), normed2.data(), m_rows, h,
                config_.rms_eps, pool_, kops_);
    PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {m_rows, 2 * inter});
    MatMulW(normed2.data(), w.w_gate_up, gate_up.data(), m_rows);
    normed2 = Tensor();
    PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {m_rows, inter});
    SwiGluRows(gate_up.data(), mlp_act.data(), m_rows, inter, pool_, kops_);
    gate_up = Tensor();
    PO_TRY_ALLOC(down, act, "mlp.down", {m_rows, h});
    MatMulW(mlp_act.data(), w.w_down, down.data(), m_rows);
    mlp_act = Tensor();
    AddInPlace(hidden.data(), down.data(), m_rows * h, pool_, kops_);
  }

  std::vector<PrefillResult> results(n_seqs);
  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    PrefillResult& result = results[s];
    result.n_new = lo.n_new;
    result.kv_start = lo.n_cached;
    result.last_logits = LastLogits(hidden.row(lo.row0 + lo.n_new - 1), act);
    const int64_t retained = RetainedNewTokens(sequences[s], lo.n_cached, lo.n_new);
    if (retained > 0 &&
        !SliceRetainedKv(pass_kv, lo.row0, retained, kvw, act, result.kv)) {
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
  const std::vector<int32_t>& positions = stack.positions;
  const int64_t max_total = stack.max_total;
  rope_table_.EnsureCapacity(max_total);

  // Like the solo chunked pass, every layer's (stacked) KV stays resident
  // between chunks — later chunks attend to it.
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
    const int64_t r1 = std::min(r0 + chunk, m_rows);
    const int64_t cs = r1 - r0;
    const std::span<const int32_t> positions_c(positions);
    const auto chunk_positions =
        positions_c.subspan(static_cast<size_t>(r0), static_cast<size_t>(cs));

    PO_TRY_ALLOC(hidden_c, act, "act.hidden", {cs, h});
    EmbeddingLookup(embedding_.data(),
                    std::span<const int32_t>(tokens).subspan(
                        static_cast<size_t>(r0), static_cast<size_t>(cs)),
                    hidden_c.data(), h);

    for (size_t l = 0; l < layers_.size(); ++l) {
      const LayerWeights& w = layers_[l];

      PO_TRY_ALLOC(normed, act, "act.normed", {cs, h});
      RmsNormRows(hidden_c.data(), w.attn_norm.data(), normed.data(), cs, h,
                  config_.rms_eps, pool_, kops_);

      PO_TRY_ALLOC(q, act, "act.q", {cs, qs});
      MatMulW(normed.data(), w.wq, q.data(), cs);
      MatMulW(normed.data(), w.wk, pass_kv[l].k.row(r0), cs);
      MatMulW(normed.data(), w.wv, pass_kv[l].v.row(r0), cs);
      normed = Tensor();

      ApplyRopeWithTable(q.data(), cs, config_.n_heads, config_.head_dim,
                         chunk_positions, rope_table_, pool_);
      ApplyRopeWithTable(pass_kv[l].k.row(r0), cs, config_.n_kv_heads,
                         config_.head_dim, chunk_positions, rope_table_, pool_);

      PO_TRY_ALLOC(attn_out, act, "act.attn_out", {cs, qs});
      for (size_t s = 0; s < n_seqs; ++s) {
        const SeqLayout& lo = layouts[s];
        const int64_t f0 = std::max(r0, lo.row0);
        const int64_t f1 = std::min(r1, lo.row0 + lo.n_new);
        if (f0 >= f1) {
          continue;  // sequence not in this chunk
        }
        const KvCacheData* prefix = SeqPrefix(sequences[s]);
        const LayerKv* layer_prefix =
            (prefix != nullptr) ? &prefix->layers[l] : nullptr;
        // This fragment's queries attend the sequence's prefix plus its own
        // keys computed so far (rows [lo.row0, f1) of the stacked KV) —
        // exactly what the solo chunked pass sees at the same rows.
        Attention(q.data() + (f0 - r0) * qs, f1 - f0, lo.n_cached + (f0 - lo.row0),
                  layer_prefix, pass_kv[l].k.row(lo.row0), pass_kv[l].v.row(lo.row0),
                  f1 - lo.row0, attn_out.data() + (f0 - r0) * qs, scores.data(),
                  extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
      }
      q = Tensor();

      PO_TRY_ALLOC(attn_proj, act, "act.attn_proj", {cs, h});
      MatMulW(attn_out.data(), w.wo, attn_proj.data(), cs);
      attn_out = Tensor();
      AddInPlace(hidden_c.data(), attn_proj.data(), cs * h, pool_, kops_);
      attn_proj = Tensor();

      PO_TRY_ALLOC(normed2, act, "act.normed", {cs, h});
      RmsNormRows(hidden_c.data(), w.mlp_norm.data(), normed2.data(), cs, h,
                  config_.rms_eps, pool_, kops_);
      PO_TRY_ALLOC(gate_up, act, "mlp.intermediate1", {cs, 2 * inter});
      MatMulW(normed2.data(), w.w_gate_up, gate_up.data(), cs);
      normed2 = Tensor();
      PO_TRY_ALLOC(mlp_act, act, "mlp.intermediate2", {cs, inter});
      SwiGluRows(gate_up.data(), mlp_act.data(), cs, inter, pool_, kops_);
      gate_up = Tensor();
      PO_TRY_ALLOC(down, act, "mlp.down", {cs, h});
      MatMulW(mlp_act.data(), w.w_down, down.data(), cs);
      mlp_act = Tensor();
      AddInPlace(hidden_c.data(), down.data(), cs * h, pool_, kops_);
    }

    // Sequences whose final row falls in this chunk read their logits now,
    // before the chunk buffer dies.
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const int64_t last = lo.row0 + lo.n_new - 1;
      if (last >= r0 && last < r1) {
        results[s].last_logits = LastLogits(hidden_c.row(last - r0), act);
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
        !SliceRetainedKv(pass_kv, lo.row0, retained, kvw, act, result.kv)) {
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
  const std::vector<int32_t>& positions = stack.positions;
  const int64_t max_total = stack.max_total;
  rope_table_.EnsureCapacity(max_total);

  PO_TRY_ALLOC(hidden, act, "act.hidden", {m_rows, h});
  EmbeddingLookup(embedding_.data(), tokens, hidden.data(), h);

  // Per-sequence retained-prefix KV (suffix discarding), allocated up front
  // and filled per layer before the stacked buffers are reused.
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

  PO_TRY_ALLOC(k_buf, act, "kv.k.current_layer", {m_rows, kvw});
  PO_TRY_ALLOC(v_buf, act, "kv.v.current_layer", {m_rows, kvw});
  PO_TRY_ALLOC(q_buf, act, "act.q", {m_rows, qs});
  PO_TRY_ALLOC(attn_out, act, "act.attn_out", {m_rows, qs});
  PO_TRY_ALLOC(normed, act, "act.normed", {m_rows, h});
  PO_TRY_ALLOC(scores, act, "attn.scores", {max_total});
  std::vector<float> extra_scores(static_cast<size_t>((workers() - 1) * max_total));

  Tensor proj_buf;
  if (prealloc && !in_place) {
    proj_buf = Tensor::TryCreate(act, {m_rows, h}, "act.proj");
    if (proj_buf.empty()) {
      return Oom("act.proj");
    }
  }

  // Same three ablation levels as the solo hybrid pass; chunks are global
  // over the stacked rows (row-independent linear layers make the chunk
  // grid a pure performance choice, bitwise-invisible).
  auto chunked_linear = [&](int64_t width, Tensor* reuse, const char* tag,
                            auto&& fn) -> Result<Tensor*> {
    if (prealloc) {
      Tensor* out = reuse;
      for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
        const int64_t cs = std::min(chunk, m_rows - r0);
        if (Status s = fn(r0, cs, out->row(r0)); !s.ok()) {
          return s;
        }
      }
      return out;
    }
    std::vector<Tensor> pieces;
    for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
      const int64_t cs = std::min(chunk, m_rows - r0);
      Tensor piece = Tensor::TryCreate(act, {cs, width}, tag);
      if (piece.empty()) {
        return Oom(tag);
      }
      if (Status s = fn(r0, cs, piece.data()); !s.ok()) {
        return s;
      }
      pieces.push_back(std::move(piece));
    }
    *reuse = Tensor();
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

    RmsNormRows(hidden.data(), w.attn_norm.data(), normed.data(), m_rows, h,
                config_.rms_eps, pool_, kops_);

    for (int64_t r0 = 0; r0 < m_rows; r0 += chunk) {
      const int64_t cs = std::min(chunk, m_rows - r0);
      MatMulW(normed.row(r0), w.wq, q_buf.row(r0), cs);
      MatMulW(normed.row(r0), w.wk, k_buf.row(r0), cs);
      MatMulW(normed.row(r0), w.wv, v_buf.row(r0), cs);
    }
    ApplyRopeWithTable(q_buf.data(), m_rows, config_.n_heads, config_.head_dim,
                       positions, rope_table_, pool_);
    ApplyRopeWithTable(k_buf.data(), m_rows, config_.n_kv_heads, config_.head_dim,
                       positions, rope_table_, pool_);

    // Attention stays UNCHUNKED per sequence (the "hybrid" property) and
    // block-diagonal across sequences.
    for (size_t s = 0; s < n_seqs; ++s) {
      const SeqLayout& lo = layouts[s];
      const KvCacheData* prefix = SeqPrefix(sequences[s]);
      const LayerKv* layer_prefix = (prefix != nullptr) ? &prefix->layers[l] : nullptr;
      Attention(q_buf.row(lo.row0), lo.n_new, lo.n_cached, layer_prefix,
                k_buf.row(lo.row0), v_buf.row(lo.row0), lo.n_new,
                attn_out.row(lo.row0), scores.data(),
                extra_scores.empty() ? nullptr : extra_scores.data(), max_total);
    }

    for (size_t s = 0; s < n_seqs; ++s) {
      if (retained[s] > 0) {
        const SeqLayout& lo = layouts[s];
        std::memcpy(result_kv[s].layers[l].k.data(), k_buf.row(lo.row0),
                    static_cast<size_t>(retained[s]) * kvw * sizeof(float));
        std::memcpy(result_kv[s].layers[l].v.data(), v_buf.row(lo.row0),
                    static_cast<size_t>(retained[s]) * kvw * sizeof(float));
      }
    }

    Tensor* o_target = in_place ? &normed : &proj_buf;
    auto o_proj =
        chunked_linear(h, o_target, "act.attn_proj",
                       [&](int64_t r0, int64_t cs, float* out) -> Status {
                         MatMulW(attn_out.row(r0), w.wo, out, cs);
                         return Status::Ok();
                       });
    if (!o_proj.ok()) {
      return o_proj.status();
    }
    AddInPlace(hidden.data(), o_proj.value()->data(), m_rows * h, pool_, kops_);

    RmsNormRows(hidden.data(), w.mlp_norm.data(), normed.data(), m_rows, h,
                config_.rms_eps, pool_, kops_);

    PO_TRY_ALLOC(gate_up_c, act, "mlp.intermediate1.chunk", {chunk, 2 * inter});
    PO_TRY_ALLOC(mlp_act_c, act, "mlp.intermediate2.chunk", {chunk, inter});
    Tensor* mlp_target = in_place ? &normed : &proj_buf;
    auto mlp_out = chunked_linear(
        h, mlp_target, "mlp.down",
        [&](int64_t r0, int64_t cs, float* out) -> Status {
          MatMulW(normed.row(r0), w.w_gate_up, gate_up_c.data(), cs);
          SwiGluRows(gate_up_c.data(), mlp_act_c.data(), cs, inter, pool_, kops_);
          MatMulW(mlp_act_c.data(), w.w_down, out, cs);
          return Status::Ok();
        });
    if (!mlp_out.ok()) {
      return mlp_out.status();
    }
    AddInPlace(hidden.data(), mlp_out.value()->data(), m_rows * h, pool_, kops_);
  }

  std::vector<PrefillResult> results(n_seqs);
  for (size_t s = 0; s < n_seqs; ++s) {
    const SeqLayout& lo = layouts[s];
    PrefillResult& result = results[s];
    result.n_new = lo.n_new;
    result.kv_start = lo.n_cached;
    result.last_logits = LastLogits(hidden.row(lo.row0 + lo.n_new - 1), act);
    if (retained[s] > 0) {
      result.kv = std::move(result_kv[s]);
    }
  }
  return results;
}

#undef PO_TRY_ALLOC

}  // namespace prefillonly
