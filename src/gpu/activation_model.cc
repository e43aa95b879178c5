#include "src/gpu/activation_model.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace prefillonly {

namespace {

// Tracks current/peak bytes through a symbolic alloc/free schedule.
class Ledger {
 public:
  int64_t Alloc(int64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
    return bytes;
  }
  void Free(int64_t bytes) { current_ -= bytes; }
  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
};

// One attention + MLP block over `rows` rows with a staged linear tail,
// mirroring the allocation order of that layer in LlamaModel::PrefillBatch
// (src/model/llama.cc). `kv_alloc_per_layer` is nonzero only on the naive
// drop-KV path, where each layer's KV is transient.
void FullWidthLayer(Ledger& ledger, const ActivationShape& s, int64_t rows,
                    int64_t kv_alloc_per_layer) {
  const int64_t normed = ledger.Alloc(rows * s.hidden * s.act_bytes);
  const int64_t q = ledger.Alloc(rows * s.q_size * s.act_bytes);
  int64_t kv_local = 0;
  if (kv_alloc_per_layer > 0) {
    kv_local = ledger.Alloc(kv_alloc_per_layer);
  }
  ledger.Free(normed);
  const int64_t attn_out = ledger.Alloc(rows * s.q_size * s.act_bytes);
  ledger.Free(q);
  const int64_t attn_proj = ledger.Alloc(rows * s.hidden * s.act_bytes);
  ledger.Free(attn_out);
  ledger.Free(attn_proj);
  const int64_t normed2 = ledger.Alloc(rows * s.hidden * s.act_bytes);
  const int64_t gate_up = ledger.Alloc(rows * 2 * s.intermediate * s.act_bytes);
  ledger.Free(normed2);
  const int64_t mlp_act = ledger.Alloc(rows * s.intermediate * s.act_bytes);
  ledger.Free(gate_up);
  const int64_t down = ledger.Alloc(rows * s.hidden * s.act_bytes);
  ledger.Free(mlp_act);
  ledger.Free(down);
  if (kv_local > 0) {
    ledger.Free(kv_local);
  }
}

// The standard and chunked passes: resident (or per-layer) KV, the score
// row, then per span of rows — the whole sequence, or one chunk — its
// hidden rows and every layer over them. All full spans are identical, so
// replaying one suffices for the peak. (The model allocates a whole-sequence
// span's hidden rows first; all three live for the whole pass, so the order
// does not move the peak.)
PassPeak Staged(const ActivationShape& s, int64_t n_new, int64_t n_total,
                const PassOptions& opt) {
  Ledger ledger;
  const int64_t span =
      opt.strategy == PassStrategy::kChunkedPrefill ? std::min(opt.chunk, n_new) : n_new;
  const int64_t kv_layer_bytes = 2 * n_new * s.kv_width * s.kv_bytes;
  const bool drop_kv = opt.ablation == PrefillAblation::kDropKvPerLayer;
  const int64_t resident_kv = drop_kv ? 0 : s.n_layers * kv_layer_bytes;
  ledger.Alloc(resident_kv);
  ledger.Alloc(n_total * s.score_bytes);  // attention score scratch
  const int64_t hidden = ledger.Alloc(span * s.hidden * s.act_bytes);
  // Every layer has an identical schedule; two iterations reach the peak.
  const int64_t reps = std::min<int64_t>(s.n_layers, 2);
  for (int64_t l = 0; l < reps; ++l) {
    FullWidthLayer(ledger, s, span, drop_kv ? kv_layer_bytes : 0);
  }
  ledger.Free(hidden);
  return PassPeak{ledger.peak(), drop_kv ? kv_layer_bytes : resident_kv};
}

PassPeak Hybrid(const ActivationShape& s, int64_t n_new, int64_t n_total,
                const PassOptions& opt) {
  Ledger ledger;
  const int64_t chunk = std::min(opt.chunk, n_new);
  ledger.Alloc(n_new * s.hidden * s.act_bytes);  // hidden
  if (opt.retained_new_tokens > 0) {
    ledger.Alloc(s.n_layers * 2 * opt.retained_new_tokens * s.kv_width * s.kv_bytes);
  }
  // One layer's KV at a time, plus whole-sequence Q / attention output /
  // norm buffer.
  const int64_t kv_current = 2 * n_new * s.kv_width * s.kv_bytes;
  ledger.Alloc(kv_current);
  ledger.Alloc(n_new * s.q_size * s.act_bytes);  // q_buf
  ledger.Alloc(n_new * s.q_size * s.act_bytes);  // attn_out
  ledger.Alloc(n_new * s.hidden * s.act_bytes);  // normed
  ledger.Alloc(n_total * s.score_bytes);         // scores
  if (opt.ablation == PrefillAblation::kNoInPlace) {
    ledger.Alloc(n_new * s.hidden * s.act_bytes);  // proj
  }

  // Mirrors per_chunk_outputs in llama.cc. Without preallocation the chunk
  // outputs pile up and a full-width concat target is allocated while they
  // are still live (the 2x output footprint the preallocation optimization
  // removes). `prev_full` is the concat buffer reused as the next call's
  // target (and freed at its start).
  int64_t prev_full = 0;
  auto chunked_linear_out = [&](int64_t width_bytes_per_row) {
    if (opt.ablation != PrefillAblation::kNoPreallocate) {
      return;  // chunks written straight into a standing buffer
    }
    ledger.Free(prev_full);
    prev_full = 0;
    std::vector<int64_t> pieces;
    for (int64_t r0 = 0; r0 < n_new; r0 += chunk) {
      const int64_t cs = std::min(chunk, n_new - r0);
      pieces.push_back(ledger.Alloc(cs * width_bytes_per_row));
    }
    const int64_t full = ledger.Alloc(n_new * width_bytes_per_row);
    for (int64_t piece : pieces) {
      ledger.Free(piece);
    }
    prev_full = full;
  };

  const int64_t reps = std::min<int64_t>(s.n_layers, 2);
  for (int64_t l = 0; l < reps; ++l) {
    // QKV projections write into preallocated standing buffers: no allocs.
    chunked_linear_out(s.hidden * s.act_bytes);  // o_proj
    const int64_t gate_up_c = ledger.Alloc(chunk * 2 * s.intermediate * s.act_bytes);
    const int64_t mlp_act_c = ledger.Alloc(chunk * s.intermediate * s.act_bytes);
    chunked_linear_out(s.hidden * s.act_bytes);  // MLP down
    ledger.Free(gate_up_c);
    ledger.Free(mlp_act_c);
  }
  ledger.Free(prev_full);
  return PassPeak{ledger.peak(), kv_current};
}

}  // namespace

PassPeak SimulatePassMemory(const ActivationShape& shape, int64_t n_new,
                            int64_t n_cached, const PassOptions& options) {
  assert(n_new > 0);
  const int64_t n_total = n_new + n_cached;
  switch (options.strategy) {
    case PassStrategy::kStandard:
    case PassStrategy::kChunkedPrefill:
      return Staged(shape, n_new, n_total, options);
    case PassStrategy::kHybrid:
      return Hybrid(shape, n_new, n_total, options);
  }
  return PassPeak{};
}

}  // namespace prefillonly
