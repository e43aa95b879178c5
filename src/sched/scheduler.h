// Request scheduling policies (paper §6, Algorithm 1).
//
// The engine presents its waiting queue as SchedEntry records; the policy
// picks which request runs next. The three policies of Fig. 5:
//
//  * kFifo            — first-come-first-serve (what vLLM does);
//  * kSjfStatic       — shortest-job-first using the JCT estimated once at
//                       ARRIVAL (traditional JCT-aware scheduling);
//  * kSrjfCalibrated  — Algorithm 1: before every decision the engine
//                       refreshes n_cached_now against the live prefix
//                       cache, and the score subtracts lambda * queueing
//                       time for starvation freedom.
//
// The policy only reads entries; refreshing n_cached_now is the engine's
// job (that refresh IS continuous JCT calibration).
//
// Thread contract (ISSUE 2): PickNext and Score are const and touch no
// mutable state, so the scheduler itself needs no locking. The engine's
// concurrent runtime serializes decisions through its single dispatcher —
// one at a time, each over a queue snapshot with entries freshly rebuilt
// against the live cache — so policy semantics are unchanged whether one
// executor or many drain the queue (tests/sched_test.cc,
// EngineSchedulingOrderTest).
#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/sched/jct.h"

namespace prefillonly {

enum class SchedPolicy { kFifo, kSjfStatic, kSrjfCalibrated };

std::string_view SchedPolicyName(SchedPolicy policy);

// How PickBatch fills the lane behind the seed (ISSUE 9):
//
//  * kFirstFit — budget-aware first-fit decreasing over remaining (miss)
//                lengths: any-length riders are considered longest-first and
//                admitted whenever they fit the remaining activation budget
//                (Prepacking, PAPERS.md). Oversized candidates are SKIPPED,
//                not a reason to stop — a smaller later rider still rides.
//  * kBucket   — the legacy ISSUE 4 gate: riders must share the seed's
//                power-of-two LengthBucket. Kept selectable for bisection
//                and for the latency argument the bucket rule encodes.
enum class BatchPacking { kFirstFit, kBucket };

std::string_view BatchPackingName(BatchPacking packing);

struct SchedEntry {
  double arrival_time = 0.0;
  int64_t n_input = 0;
  // Prefix-cache hit length captured when the request arrived.
  int64_t n_cached_at_arrival = 0;
  // Hit length against the cache as of *now* (refreshed by the engine
  // before each scheduling decision for kSrjfCalibrated).
  int64_t n_cached_now = 0;
  // Strict scheduling class (ISSUE 5): PickNext always prefers the highest
  // priority present, and applies the policy's score (including the lambda
  // starvation offset) only within that class. Default 0.
  int32_t priority = 0;
  // Deliberate co-batch group (ISSUE 5): requests submitted together by one
  // multi-item API call share a non-zero group id. PickBatch fills lanes
  // with the seed's group-mates FIRST, regardless of their length — the
  // caller co-submitted them for one decision, so welding them is
  // deliberate. 0 = ungrouped.
  int64_t group = 0;
  // Prefix-aware dispatch (docs/CONCURRENCY.md). `share_key` is the chain
  // hash of the entry's first uncached reusable block, 0 when every
  // reusable block is already cached. Chain hashes are prefix-closed and
  // every entry is matched against the same cache, so two entries would
  // compute the same uncached block exactly when their share_keys are
  // equal. `blocked` is set when an in-flight batch is already computing
  // the share_key block: waiting for its publication turns the entry's
  // prefix into a cache hit. The engine fills both fields only under
  // kSrjfCalibrated; left at zero/false they never reorder or skip anyone.
  uint64_t share_key = 0;
  bool blocked = false;
};

// Legacy batch-admission bucket (ISSUE 4, now BatchPacking::kBucket): the
// power-of-two bracket of a request's remaining (cache-miss) token count.
// Under the bucket rule requests share one stacked prefill batch only when
// their miss lengths fall in the same bucket, so a batch never welds a
// short request to a much longer one.
int64_t LengthBucket(int64_t n_miss_tokens);

// Per-sequence admission cost model (ISSUE 9). The engine builds this from
// the model config (src/sched/batch_cost.h) so the scheduler can project
// what a candidate batch will charge against the lane's TrackingAllocator
// and admit riders only while the projection fits `budget_bytes`.
//
// The projection must never be optimistic: every byte the stacked prefill
// pass allocates per miss token, per reused-prefix token, and per
// sequence must be covered, or admission silently converts packed batches
// into batch-OOM solo-fallback retries. The randomized sweep in
// tests/batching_test.cc asserts projected >= actual peak per composition.
struct BatchBudget {
  // Lane activation budget. 0 = unlimited (no admission constraint).
  size_t budget_bytes = 0;
  // Bytes charged per remaining (cache-miss) token of a sequence.
  size_t bytes_per_miss_token = 0;
  // Bytes charged per reused-prefix token: its slot in the attention score
  // row. The prefix KV itself is read in place from the cache blocks and
  // costs the lane's arena nothing.
  size_t bytes_per_cached_token = 0;
  // Fixed bytes charged per admitted sequence (logit staging, slack for
  // allocator minimums).
  size_t bytes_per_sequence = 0;
  // Cache block size in tokens. The engine refreshes n_cached_now as
  // min(match, n_input - 1), but the prefix it can actually reuse is
  // block-aligned — rounding down here keeps the projected miss count
  // conservative (never below what the model will really stack).
  int64_t block_tokens = 0;

  // Reusable prefix tokens after block alignment (what the engine's
  // AcquirePrefix will really reuse), and the resulting stacked rows.
  int64_t CachedTokens(int64_t n_input, int64_t n_cached_now) const;
  int64_t MissTokens(int64_t n_input, int64_t n_cached_now) const;
  // Projected lane bytes for one sequence.
  size_t SequenceBytes(int64_t n_input, int64_t n_cached_now) const;
};

// One batch-formation decision (ISSUE 9): the admitted entries plus the
// admission accounting the engine exports through /v1/stats.
struct BatchPick {
  // Queue indices of the admitted entries, seed first, then riders in
  // admission order.
  std::vector<size_t> picked;
  // Projected lane bytes for the admitted set under the BatchBudget.
  size_t projected_bytes = 0;
  // Admitted remaining (miss) tokens across the set — the lane-occupancy
  // numerator for miss_tokens_per_batch.
  int64_t miss_tokens = 0;
  // Candidates passed over because admitting them would exceed the budget.
  // Each skip leaves the candidate queued for a later decision.
  int64_t budget_skips = 0;
  // Riders passed over by the prefix rule: blocked on an in-flight prefix,
  // or sharing an uncached prefix with a member already admitted. Each
  // stays queued and runs warm once the prefix is published.
  int64_t prefix_waits = 0;
};

class Scheduler {
 public:
  // `estimator` must outlive the scheduler. `lambda` is the starvation
  // offset in estimator units per second of queueing (paper default 500
  // with the cache-miss-token proxy). `packing` selects the PickBatch
  // rider-admission rule (ISSUE 9); the seed choice never depends on it.
  Scheduler(SchedPolicy policy, double lambda, const JctEstimator* estimator,
            BatchPacking packing = BatchPacking::kFirstFit);

  // Index of the entry to run next: highest priority class first, then
  // runnable before blocked, then best score, ties FIFO. Work-conserving —
  // a blocked entry is picked when its whole class is blocked.
  // Precondition: non-empty queue.
  size_t PickNext(std::span<const SchedEntry> queue, double now) const;

  // Up to `max_batch` entries to run as ONE batched prefill. The seed is
  // exactly PickNext's winner — batching never changes which request wins
  // the scheduling decision, so SRJF aging and the lambda starvation bound
  // are unaffected (a starved long request becomes the seed and is always
  // admitted, even when it alone exceeds the budget — it would be charged
  // the same running solo). The remaining slots fill in tiers:
  //
  //  1. the seed's co-batch group-mates (ISSUE 5), highest priority class
  //     first then best score, ties FIFO;
  //  2. kFirstFit: every other waiting entry, warm riders (a block-aligned
  //     cached prefix to reuse) before cold ones, and within each of those
  //     two tiers highest priority class first then LONGEST remaining
  //     length first (first-fit decreasing), ties FIFO. kBucket: only
  //     entries from the seed's LengthBucket, by class then score.
  //
  // Every tier obeys the prefix rule — a rider that is blocked, or whose
  // share_key an admitted member already carries, is skipped (counted in
  // prefix_waits) — and charges the BatchBudget cost model; a candidate
  // that does not fit the remaining budget is skipped (counted in
  // budget_skips). Either way the scan continues — a later candidate can
  // still ride. Precondition: non-empty queue.
  BatchPick PickBatch(std::span<const SchedEntry> queue, double now,
                      int max_batch, const BatchBudget& budget) const;

  // Budget-free convenience overload (unit tests, Fig. 5 walkthrough):
  // unlimited budget, indices only.
  std::vector<size_t> PickBatch(std::span<const SchedEntry> queue, double now,
                                int max_batch) const;

  // The score used for selection (lower runs first); exposed for tests and
  // for the Fig. 5 walkthrough benchmark.
  double Score(const SchedEntry& entry, double now) const;

  SchedPolicy policy() const { return policy_; }
  double lambda() const { return lambda_; }
  BatchPacking packing() const { return packing_; }

 private:
  SchedPolicy policy_;
  double lambda_;
  const JctEstimator* estimator_;
  BatchPacking packing_;
};

}  // namespace prefillonly

#endif  // SRC_SCHED_SCHEDULER_H_
