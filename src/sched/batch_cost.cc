#include "src/sched/batch_cost.h"

#include <algorithm>

namespace prefillonly {
namespace {

// Worst simultaneous pair of per-row linear-layer transients inside one
// decoder layer with a staged linear tail (src/model/llama.cc,
// LlamaModel::PrefillBatch): normed+q, q+attn_out, attn_proj, normed2+gate_up,
// gate_up+mlp_act, mlp_act+down. Taking the max over the pairs (instead of
// hard-coding the Llama-ratio winner 3*intermediate) keeps the bound valid
// for user configs with unusual width ratios.
int64_t WorstLayerTransientFloats(const ModelConfig& model) {
  const int64_t h = model.hidden_size;
  const int64_t qs = model.q_size();
  const int64_t inter = model.intermediate_size;
  return std::max({h + qs, 2 * qs, h + 2 * inter, 3 * inter, inter + h});
}

}  // namespace

BatchBudget MakeBatchBudget(const ModelConfig& model, PrefillMode mode,
                            size_t activation_budget_bytes,
                            int64_t block_tokens) {
  const int64_t h = model.hidden_size;
  const int64_t qs = model.q_size();
  const int64_t kvw = model.kv_size();
  const int64_t inter = model.intermediate_size;
  // K+V floats per token across all layers — both the stacked pass_kv the
  // forward keeps resident and the retained slices carved out for the
  // prefix cache at the end of the pass are this size.
  const int64_t retained_kv = 2 * kvw * model.n_layers;
  int64_t miss_floats = 0;
  if (mode == PrefillMode::kHybrid) {
    // Hybrid keeps per-row buffers resident for the whole pass: hidden +
    // normed + (proj_buf when not updating in place) + q + attn_out +
    // single-layer k/v staging + the retained KV allocated up front. The
    // chunked-linear MLP working set (gate_up + activation) is sized
    // min(chunk, rows) * 3 * inter; charging it per row upper-bounds it.
    miss_floats = 3 * h + 2 * qs + 2 * kvw + retained_kv + 3 * inter;
  } else {
    // Standard / chunked: hidden + the all-layer stacked pass_kv (resident
    // for the whole pass) + the retained slices that coexist with it at the
    // end + the worst per-layer transient pair.
    miss_floats = h + 2 * retained_kv + WorstLayerTransientFloats(model);
  }
  BatchBudget budget;
  budget.budget_bytes = activation_budget_bytes;
  // +sizeof(float) on the miss rate covers the attention score row, which
  // spans the full (cached + new) context of the longest sequence. That
  // slot is all a cached token costs the lane: the pass reads the prefix
  // in place from the pinned cache blocks, outside the arena.
  budget.bytes_per_miss_token =
      static_cast<size_t>(miss_floats) * sizeof(float) + sizeof(float);
  budget.bytes_per_cached_token = sizeof(float);
  // Per-sequence constant: the last-logits staging row (vocab floats) plus
  // slack for the allocator's minimum-charge granularity on tiny tensors.
  budget.bytes_per_sequence =
      static_cast<size_t>(model.vocab_size) * sizeof(float) + 256;
  budget.block_tokens = block_tokens;
  return budget;
}

}  // namespace prefillonly
