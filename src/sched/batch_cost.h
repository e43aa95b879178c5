// Batch-admission cost model (ISSUE 9).
//
// Builds the BatchBudget the scheduler charges when packing a stacked
// prefill batch. The per-token and per-sequence rates are derived from the
// arena allocations LlamaModel::PrefillBatch actually makes (src/model/
// llama.cc), mode by mode, and are deliberately CONSERVATIVE: the
// projection must upper-bound the lane's TrackingAllocator peak for every
// composition, or admission would pack batches that only "fit" on paper and
// then burn the work in batch-OOM solo-fallback retries. The randomized
// sweep in tests/batching_test.cc asserts projected >= actual peak.
//
// This lived as two file-private helpers in src/core/engine.cc before
// ISSUE 9; it moved here so the scheduler owns admission end to end and the
// engine's PickBatchIds collapses to id mapping.
#ifndef SRC_SCHED_BATCH_COST_H_
#define SRC_SCHED_BATCH_COST_H_

#include <cstddef>
#include <cstdint>

#include "src/model/config.h"
#include "src/model/llama.h"
#include "src/sched/scheduler.h"

namespace prefillonly {

// Cost model for one executor lane running `mode` prefills of `model`.
// `activation_budget_bytes` is the lane's hard TrackingAllocator cap (0 =
// unlimited); `block_tokens` is the prefix-cache block size used to round
// projected reuse down to the block-aligned prefix AcquirePrefix can really
// reuse.
BatchBudget MakeBatchBudget(const ModelConfig& model, PrefillMode mode,
                            size_t activation_budget_bytes,
                            int64_t block_tokens);

}  // namespace prefillonly

#endif  // SRC_SCHED_BATCH_COST_H_
