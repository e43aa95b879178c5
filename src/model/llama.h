// Llama-architecture transformer with three prefill execution strategies.
//
// This is the real-computation half of the reproduction: a from-scratch
// CPU implementation of the model family the paper serves (RMSNorm + RoPE +
// grouped-query attention + SwiGLU MLP), with the execution strategies the
// paper contrasts:
//
//  - kStandard: full-sequence forward, one layer at a time. Linear-layer
//    intermediates are materialized for the whole sequence — the memory
//    spikes of Fig. 3a. KV for all layers is held for the whole pass (what
//    vanilla engines do), unless `drop_kv_in_pass` models the naive
//    "just drop KV" ablation of §4.1.
//  - kChunked: chunked prefill (Sarathi-style baseline). Tokens advance
//    through all layers chunk-by-chunk, so the KV cache of every layer must
//    stay resident between chunks — the reason chunked prefill only buys
//    ~2x max input length (§2.5).
//  - kHybrid: the paper's hybrid prefilling (§4.2). Attention runs over the
//    full sequence; every linear layer runs chunk-by-chunk. Only the
//    current layer's KV is alive during the pass, plus whatever prefix the
//    retention policy keeps. `preallocate_outputs` and `in_place` are the
//    two optimizations of §4.3.
//
// All three strategies produce bitwise identical logits (linear layers are
// row-independent and the attention summation order is fixed); the test
// suite asserts exact equality. The same row-independence makes every
// strategy one stacked pass over any number of sequences: their new-token
// rows share one activation matrix and attention is block-diagonal, so each
// sequence's logits are bitwise those of a pass over it alone. Prefill is
// the one-sequence case of PrefillBatch, not a separate implementation.
//
// A prefill-only request reads only the logits at its final position, so
// the last layer computes only each sequence's final stacked row past its
// K/V projections: Q and its RoPE, attention (one query row over the whole
// prefix and new K/V), o-proj, both residual adds, the MLP norm, the MLP
// and the LM head. K/V, their RoPE and the retained-KV copies still cover
// every row. Row independence makes the skipped rows dead arithmetic, so
// the bits do not move; and every mode still allocates the same tensors
// and polls abort_check at the same chunks and layers, so tracked peaks,
// the activation walker and the poll grid are unchanged.
#ifndef SRC_MODEL_LLAMA_H_
#define SRC_MODEL_LLAMA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/model/config.h"
#include "src/model/kv.h"
#include "src/model/rope_table.h"
#include "src/tensor/ops_dispatch.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor.h"

namespace prefillonly {

class ThreadPool;

enum class PrefillMode { kStandard, kChunked, kHybrid };

enum class KvRetention {
  kNone,          // discard everything (pure prefill-only execution)
  kAll,           // keep KV of all new tokens, all layers (vanilla engine)
  kPrefixBudget,  // suffix KV discarding: keep new tokens' KV only up to a
                  // global prefix budget (absolute token position)
};

struct PrefillOptions {
  PrefillMode mode = PrefillMode::kHybrid;
  int64_t chunk_size = 64;

  // Hybrid-only optimizations (§4.3). Disabling them reproduces the
  // Fig. 10 ablation bars.
  bool preallocate_outputs = true;
  bool in_place = true;

  // Standard-only: allocate each layer's KV inside that layer instead of
  // keeping all layers resident for the whole pass (the naive §4.1
  // ablation). Valid in a batch of any size, as long as every sequence
  // retains nothing (retention kNone).
  bool drop_kv_in_pass = false;

  KvRetention retention = KvRetention::kNone;
  // Absolute token position up to which KV is retained under kPrefixBudget.
  int64_t prefix_budget_tokens = 0;

  // Cooperative in-flight abort: when set, the pass calls this at work
  // boundaries — before every chunk (kChunked, and every chunked linear of
  // kHybrid, chunks being global over the stacked rows) and before every
  // layer (kStandard) — and a non-OK status aborts the prefill immediately,
  // returning that status with the remaining work skipped. The pass is
  // shared, so in a multi-sequence PrefillBatch a non-OK poll aborts the
  // whole pass, every sequence included. The check must be cheap and must
  // not touch model state. Unset (the default) adds no work to the pass,
  // and the checks never alter the computation itself, so logits stay
  // bit-identical either way.
  std::function<Status()> abort_check;
};

struct PrefillResult {
  // Logits of the final position — all a prefill-only request needs, and
  // the only row the last layer computes past its K/V (same schedule and
  // polls as a pass computing every row; see the header comment).
  std::vector<float> last_logits;
  // Newly computed KV, starting at absolute position `kv_start`, covering
  // `kv.n_tokens` tokens (per the retention policy). Empty for kNone.
  KvCacheData kv;
  int64_t kv_start = 0;
  int64_t n_new = 0;  // tokens actually computed (input minus cached prefix)
};

// One sequence of a prefill pass. Retention is per sequence (each request
// brings its own suffix-discarding budget); everything else — mode,
// chunking, the §4.3 optimizations, the abort check — comes from the shared
// PrefillOptions, whose own retention fields are ignored by PrefillBatch.
struct PrefillSequence {
  std::span<const int32_t> tokens;
  // KV of tokens [0, cached_prefix->n_tokens); may be null.
  const KvCacheData* cached_prefix = nullptr;
  KvRetention retention = KvRetention::kNone;
  // Absolute token position up to which KV is retained under kPrefixBudget.
  int64_t prefix_budget_tokens = 0;
};

class LlamaModel {
 public:
  // Deterministically random-initialized weights (scaled uniform).
  // `backend` picks the kernel backend for every op of the forward pass
  // (ISSUE 3): kAuto resolves PREFILLONLY_KERNEL_BACKEND, then the best
  // available. When the resolved backend packs weights (kAvx2), each weight
  // matrix is repacked once, here, into the panel-major layout its GEMM
  // sweeps (src/tensor/prepack.h); the packed image replaces the row-major
  // one, so weight_bytes() stays ~flat (panel zero-padding only).
  explicit LlamaModel(ModelConfig config, uint64_t seed,
                      KernelBackend backend = KernelBackend::kAuto);

  LlamaModel(const LlamaModel&) = delete;
  LlamaModel& operator=(const LlamaModel&) = delete;

  const ModelConfig& config() const { return config_; }
  size_t weight_bytes() const { return weight_alloc_->current_bytes(); }

  // The resolved kernel backend (never kAuto) and its op table.
  KernelBackend kernel_backend() const { return kops_->backend; }
  const KernelOps* kernel_ops() const { return kops_; }

  // Intra-op parallelism. The pool (not owned; may be null = serial) is used
  // by every kernel of the forward pass. Work is partitioned so each output
  // element is owned by exactly one thread with a fixed accumulation order,
  // so logits are bitwise identical for every thread count and every
  // PrefillMode (tests/model_test.cc asserts this). Not thread-safe against
  // concurrent Prefill calls; set it once at wiring time.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  // Runs the prefill phase over `tokens`, reusing `cached_prefix` (KV of
  // tokens [0, cached_prefix->n_tokens), may be null) and allocating all
  // activations from `activations` — which may carry a byte budget, in
  // which case exceeding it returns kResourceExhausted.
  //
  // A batch of one: PrefillBatch over a single PrefillSequence carrying
  // options.retention / options.prefix_budget_tokens. Its tracked peak and
  // abort polls are those of that pass (tests/batching_test.cc pins both).
  //
  // Requires cached_prefix->n_tokens < tokens.size(): the last token's
  // logits must be computed, so at least one token is always prefilled.
  Result<PrefillResult> Prefill(std::span<const int32_t> tokens,
                                const KvCacheData* cached_prefix,
                                const PrefillOptions& options,
                                TrackingAllocator& activations) const;

  // The forward pass, for one or more sequences: prefills all
  // `sequences` in one pass by stacking their new-token rows into a single
  // activation matrix. Linear layers (and their chunking) run over the
  // stacked rows — one GEMM of sum(n_new) rows instead of B small ones —
  // while attention stays block-diagonal: each sequence's query rows attend
  // only its own prefix + new keys, via per-sequence row-slice calls into
  // the same dispatched kernels. RoPE positions and KV/logit writeback are
  // per sequence. Returns one PrefillResult per sequence, in order.
  //
  // Determinism contract: because every kernel computes each output row from
  // that row's inputs alone (fixed ascending-k accumulation, no
  // cross-sequence reduction), sequence i's logits and retained KV are
  // BITWISE identical to a Prefill(sequences[i]) with the same options, for
  // every batch composition, thread count, and prefill mode — within a
  // kernel backend (tests/batching_test.cc).
  //
  // options.retention / options.prefix_budget_tokens are ignored in favor
  // of the per-sequence fields. drop_kv_in_pass requires every sequence's
  // retention to be kNone. options.abort_check polls once per pass
  // boundary, not per sequence; a non-OK poll aborts every sequence.
  Result<std::vector<PrefillResult>> PrefillBatch(
      std::span<const PrefillSequence> sequences, const PrefillOptions& options,
      TrackingAllocator& activations) const;

 private:
  // One weight matrix, in exactly one layout: row-major `dense` for
  // backends that read it in place, or the panel-major `packed` image for
  // backends that pack (the dense image is released right after the pack —
  // keeping both would double resident weight memory).
  struct Weight {
    Tensor dense;         // [k, n] row-major; empty when packed is engaged
    PackedMatrix packed;  // engaged iff kops_->gemm_layout == kPacked
  };

  struct LayerWeights {
    Tensor attn_norm;  // [h]
    Weight wq;         // [h, q_size]
    Weight wk;         // [h, kv_size]
    Weight wv;         // [h, kv_size]
    Weight wo;         // [q_size, h]
    Tensor mlp_norm;   // [h]
    Weight w_gate_up;  // [h, 2*intermediate]  (fused gate/up projection)
    Weight w_down;     // [intermediate, h]
  };

  // MatMul against a weight matrix, taking the packed path when the weight
  // carries a packed image.
  void MatMulW(const float* a, const Weight& w, float* c, int64_t m) const;

  // Checks one sequence of a pass against the shared options.
  Status Validate(const PrefillSequence& seq, const PrefillOptions& options) const;

  // Where one sequence's new-token rows live inside the stacked batch
  // matrix: rows [row0, row0 + n_new).
  struct SeqLayout {
    int64_t n_total = 0;   // tokens.size()
    int64_t n_cached = 0;  // cached prefix length
    int64_t n_new = 0;     // n_total - n_cached
    int64_t row0 = 0;      // first stacked row

    int64_t row_end() const { return row0 + n_new; }
    // The kept-row rule all three passes share: the first of this
    // sequence's rows a layer computes past its K/V projections. The last
    // layer's output is read only at the final row (by the LM head), so
    // there it is that row; every other layer computes them all. K/V, their
    // RoPE and the retained-KV copies always cover every row.
    int64_t live_row0(bool last_layer) const {
      return last_layer ? row_end() - 1 : row0;
    }
  };

  // Calls fn(row, count) for each maximal run of consecutive live rows
  // (SeqLayout::live_row0) inside stacked rows [r0, r1): one run [r0, r1)
  // outside the last layer, the final rows that fall inside it (adjacent
  // ones merged) in the last layer.
  template <typename Fn>
  static void ForEachLiveRun(std::span<const SeqLayout> layouts, bool last_layer,
                             int64_t r0, int64_t r1, Fn&& fn);

  Result<std::vector<PrefillResult>> PrefillBatchStandard(
      std::span<const PrefillSequence> sequences, std::span<const SeqLayout> layouts,
      const PrefillOptions& options, TrackingAllocator& act) const;
  Result<std::vector<PrefillResult>> PrefillBatchChunked(
      std::span<const PrefillSequence> sequences, std::span<const SeqLayout> layouts,
      const PrefillOptions& options, TrackingAllocator& act) const;
  Result<std::vector<PrefillResult>> PrefillBatchHybrid(
      std::span<const PrefillSequence> sequences, std::span<const SeqLayout> layouts,
      const PrefillOptions& options, TrackingAllocator& act) const;

  // Causal attention for query rows at absolute positions
  // [q_pos0, q_pos0 + q_rows) over prefix KV (may be null) plus the first
  // `new_rows` rows of k_new/v_new (absolute positions n_prefix..). Raw
  // row pointers (strides implied by the config: q/out q_size, k/v
  // kv_size) so batched callers can pass row slices of stacked buffers.
  // The work runs in the backend's KernelOps::attention_rows, one call per
  // row range x the query heads of one KV group. Threads split the
  // (query row, head) pairs into area-balanced shards; each pair is
  // computed start to finish by one thread, and attention_rows computes it
  // identically however pairs are grouped into calls, so results are
  // bitwise independent of the thread count. `scores` is worker 0's
  // scratch row (scores_stride >= q_pos0 + q_rows floats, budget-tracked —
  // the one row the activation walker models); `extra_scores` is untracked
  // host scratch of (workers() - 1) more rows at the same stride, null when
  // workers() == 1. A backend's own extra scratch (the avx2 kernel's packed
  // K/V and per-head score rows) is untracked thread-local memory. Keeping
  // all of that out of the tracked budget keeps activation accounting and
  // MIL predictions machine- and backend-independent. Writes
  // [q_rows, q_size] into `out`.
  void Attention(const float* q, int64_t q_rows, int64_t q_pos0, const LayerKv* prefix,
                 const float* k_new, const float* v_new, int64_t new_rows, float* out,
                 float* scores, float* extra_scores, int64_t scores_stride) const;

  // Number of score-scratch rows Attention may use (= pool threads).
  int64_t workers() const;

  // Final RMSNorm + LM head for a single hidden row. Its two row-sized
  // buffers are untracked: negligible next to the pass's activations.
  std::vector<float> LastLogits(const float* hidden_row) const;

  ModelConfig config_;
  std::unique_ptr<TrackingAllocator> weight_alloc_;
  ThreadPool* pool_ = nullptr;         // not owned; null = serial
  const KernelOps* kops_ = nullptr;    // resolved kernel backend table
  // Precomputed RoPE cos/sin rows, grown lazily to the longest position a
  // pass has seen (mutable: growth is a cache fill, logically const).
  mutable RopeTable rope_table_;
  Tensor embedding_;   // [vocab, h]
  std::vector<LayerWeights> layers_;
  Tensor final_norm_;  // [h]
  Weight lm_head_;     // [h, vocab]
};

}  // namespace prefillonly

#endif  // SRC_MODEL_LLAMA_H_
