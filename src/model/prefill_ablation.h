// The Fig. 10 ablations of a prefill pass, shared by the model
// (PrefillOptions, src/model/llama.h) and by the activation walker that
// replays its allocations (PassOptions, src/gpu/activation_model.h).
#ifndef SRC_MODEL_PREFILL_ABLATION_H_
#define SRC_MODEL_PREFILL_ABLATION_H_

namespace prefillonly {

// Each ablation belongs to one prefill mode; a pass rejects the others.
enum class PrefillAblation {
  kNone,
  // kStandard: each layer's K/V is allocated inside the layer instead of
  // every layer's for the whole pass — the naive "just drop KV" of §4.1.
  // Retains no KV.
  kDropKvPerLayer,
  // kHybrid without in-place computation (§4.3): linear outputs go to a
  // whole-stack buffer of their own instead of over the dead norm rows.
  kNoInPlace,
  // kHybrid without output preallocation (§4.3), hence without in-place
  // too: each chunk's output is its own tensor, concatenated afterwards.
  kNoPreallocate,
};

}  // namespace prefillonly

#endif  // SRC_MODEL_PREFILL_ABLATION_H_
