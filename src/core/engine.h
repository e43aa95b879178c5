// The real PrefillOnly engine: the paper's system, runnable on CPU.
//
// Wires together everything below it:
//   * LlamaModel with HYBRID PREFILLING (§4) — attention unchunked, linear
//     layers chunk-by-chunk, with output preallocation and in-place reuse;
//   * SUFFIX KV CACHE DISCARDING (§5.1) — only the prefix that fits the
//     cache budget is retained, via KvRetention::kPrefixBudget;
//   * a block-granular PREFIX CACHE (§2.1): PrefixCache metadata plus
//     KvBlockStore tensor payloads, LRU-evicted under a token budget;
//   * SRJF scheduling with CONTINUOUS JCT CALIBRATION (§6.3, Algorithm 1):
//     before every scheduling decision the cache-hit length of each waiting
//     request is refreshed against the live cache, and a starvation offset
//     lambda * queueing-time keeps the tail bounded;
//   * CONTINUOUS BATCHING inside executor lanes (ISSUE 4, repacked in
//     ISSUE 9): each scheduling decision may hand a lane up to
//     EngineOptions::max_batch_size requests packed first-fit decreasing
//     over remaining (miss) lengths against the lane's activation budget
//     (Scheduler::PickBatch + BatchBudget), prefilled as ONE stacked pass
//     with block-diagonal attention (LlamaModel::PrefillBatch). The SRJF
//     winner always seeds the batch, so scheduling semantics are unchanged,
//     and each request's logits are bitwise identical to solo execution;
//   * PREFIX-AWARE DISPATCH: calibration also sees the prefixes in-flight
//     batches are computing (in_flight_blocks_), so a request waits for a
//     shared uncached prefix to be published instead of computing it a
//     second time at once (docs/CONCURRENCY.md);
//   * constrained sampling (§2.3): probabilities over the caller's allowed
//     token list, from a single prefill pass.
//
// Two frontends:
//   * synchronous: Submit(...) then RunPending() — deterministic, used by
//     tests and benchmarks; rejected with kFailedPrecondition while the
//     concurrent runtime is active;
//   * concurrent (ISSUE 2): StartWorker() spawns a dispatcher plus
//     EngineOptions::max_concurrent_requests executor threads. The SRJF
//     scheduler picks the next request under the dispatch lock whenever an
//     executor slot frees, and each in-flight request runs on an elastic
//     partition of the ThreadPool workers (ThreadPool::Lease). Responses are
//     delivered through the optional callback and/or the std::future returned
//     by SubmitAsync. ScoreSync remains valid while the runtime is active —
//     it executes inline on the calling thread as one more concurrent lane.
//
// Determinism contract: a request's logits are bitwise identical whether it
// ran on 1, 4, or all workers, alone or alongside other requests
// (tests/concurrency_test.cc). Lock hierarchy (docs/CONCURRENCY.md):
// mu_ (dispatch/stats) may be taken before cache_mu_ (cache tiers), never
// the reverse; neither is held across a model prefill.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/queue.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/kv_block_store.h"
#include "src/core/request.h"
#include "src/kvcache/offload_directory.h"
#include "src/kvcache/prefix_cache.h"
#include "src/model/llama.h"
#include "src/sched/jct.h"
#include "src/sched/scheduler.h"

namespace prefillonly {

struct EngineOptions {
  ModelConfig model = ModelConfig::Small();
  uint64_t weight_seed = 42;

  // Execution strategy. kHybrid is the paper's engine; kStandard/kChunked
  // turn the same engine into the baselines for A/B comparisons.
  PrefillMode mode = PrefillMode::kHybrid;
  int64_t chunk_size = 64;
  bool preallocate_outputs = true;
  bool in_place = true;

  // Intra-op parallelism: CPU threads used by every kernel of the forward
  // pass (ISSUE 1). 0 = hardware_concurrency; 1 = exact legacy serial
  // execution (no pool machinery at all). Logits are bitwise identical for
  // every value — work is partitioned so each output element is owned by
  // exactly one thread with a fixed accumulation order. The activation
  // budget is thread-count-independent: attention's extra per-thread score
  // rows are untracked host scratch, so the tracked footprint (and the
  // activation walker's predictions) match the serial seed exactly.
  int num_threads = 0;

  // Kernel backend for the tensor layer (ISSUE 3), plumbed to the model
  // like num_threads. kAuto resolves the PREFILLONLY_KERNEL_BACKEND env
  // var ("auto" / "scalar" / "avx2"), then picks the best backend the host
  // supports; forcing kAvx2 on a pre-AVX2 host falls back to scalar with a
  // warning. WITHIN a backend logits keep the full determinism contract
  // (bitwise identical across thread counts, prefill modes, partition
  // widths, solo-vs-concurrent); ACROSS backends parity is tolerance-based
  // (docs/PERFORMANCE.md "Kernel backends").
  KernelBackend kernel_backend = KernelBackend::kAuto;

  // Cross-request parallelism (ISSUE 2): how many requests the concurrent
  // runtime (StartWorker) executes simultaneously. 1 reproduces the legacy
  // single-executor behavior; N > 1 gives each in-flight request a reserved
  // ~num_threads/N worker share plus elastic borrowing of idle workers.
  // Logits do not depend on this value.
  int max_concurrent_requests = 1;

  // Continuous batching inside one executor lane (ISSUE 4): up to this many
  // queued requests that fit the lane's activation budget are stacked into
  // ONE batched prefill when a lane frees. 1 = exact legacy behavior (every
  // request prefills solo). The batch seed is always the scheduler's
  // PickNext winner, so SRJF aging semantics are unchanged. Logits do not
  // depend on this value: a request's bits are identical solo, concurrent,
  // or batched at any batch composition (tests/batching_test.cc).
  int max_batch_size = 1;

  // How the scheduler fills the remaining batch slots behind the seed
  // (ISSUE 9). kFirstFit (default) packs any-length riders first-fit
  // decreasing over remaining (miss) tokens against the activation budget —
  // the Prepacking policy; mixed-length batches stay bitwise identical to
  // solo because block-diagonal attention slices rows per sequence.
  // kBucket restores the legacy ISSUE 4 same-LengthBucket gate, kept for
  // bisection and A/B latency comparisons.
  BatchPacking batch_packing = BatchPacking::kFirstFit;

  // Activation budget in bytes (0 = unlimited), applied PER LANE: each
  // in-flight execution tracks its own activation arena, and a prefill
  // batch (max_batch_size > 1) shares its lane's single arena — so size
  // the budget for the stacked footprint you want to allow, not for one
  // request. Batch admission projects against this budget and an
  // overshooting stacked pass re-runs its members alone, so a budget
  // sized for exactly one request quietly turns batching off. Exceeding
  // it fails the request with kResourceExhausted — the CPU analogue of
  // GPU OOM.
  size_t activation_budget_bytes = 0;

  // Prefix-cache budget in tokens; KV beyond it is discarded (suffix KV
  // cache discarding). 0 disables caching entirely.
  int64_t cache_budget_tokens = 4096;
  // Second-tier budget (§9 "offloading the KV caches to CPU"): blocks
  // evicted from the primary cache are demoted here instead of discarded,
  // and reloaded on a later hit. 0 keeps the paper's default (discard).
  int64_t cpu_offload_budget_tokens = 0;
  int block_size = 32;

  int64_t max_input_length = 1 << 20;

  SchedPolicy policy = SchedPolicy::kSrjfCalibrated;
  // Starvation offset in estimator units per second (§6.3).
  double lambda = 500.0;

  // --- Robustness (ISSUE 6; docs/ROBUSTNESS.md) ------------------------
  // Bounded retry of TRANSIENT prefix/KV acquisition failures: when the
  // cache acquire fails with kResourceExhausted (block pool pinned by
  // batchmates, injected allocation failure), the request retries up to
  // this many times with exponential backoff (alloc_retry_backoff_ms << n)
  // before the failure is surfaced. A retry that would land past the
  // request deadline is not attempted. 0 disables (legacy behavior).
  int alloc_retry_max = 0;
  int64_t alloc_retry_backoff_ms = 1;

  // Watermark overload shedding with hysteresis: once the waiting queue
  // reaches shed_high_watermark, NEW submissions are rejected with
  // kResourceExhausted — the HTTP 429 + Retry-After path — until the queue
  // drains back to shed_low_watermark. Shed requests are never admitted
  // (they do not count as submitted; stats().shed counts them). 0 disables;
  // a high watermark with low <= 0 defaults low to high/2.
  int64_t shed_high_watermark = 0;
  int64_t shed_low_watermark = 0;

  // Executor watchdog: a dispatched request still unfinished this many ms
  // after leaving the queue has its promise failed with kInternal so async
  // clients are not left hanging behind a wedged lane. Delivery-level only:
  // the lane itself keeps running and terminal accounting is untouched, so
  // the balance invariant holds with or without stalls. 0 disables.
  int64_t watchdog_timeout_ms = 0;

  // Fault-injection schedule (src/common/fault.h grammar), installed into
  // the PROCESS-GLOBAL injector at engine construction. Empty leaves the
  // injector untouched (also settable via PREFILLONLY_FAULT_SCHEDULE); the
  // default build therefore runs bit-identical to a build without the
  // fault layer.
  std::string fault_schedule;
};

struct EngineStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  // Request-lifecycle outcomes (ISSUE 5). `cancelled` counts requests
  // withdrawn while still queued — they never executed (no prefill, no
  // batch, no completed/failed increment). `cancelled_in_flight` counts
  // mark-and-ignore cancellations: the prefill had already started, its
  // result was discarded. `deadline_expired` counts requests failed with
  // kDeadlineExceeded before dispatch (lapsed while queued); submissions
  // with an already-expired deadline are rejected before counting as
  // submitted.
  int64_t cancelled = 0;
  int64_t cancelled_in_flight = 0;
  int64_t deadline_expired = 0;
  // Cooperative in-flight abort (ISSUE 6): requests whose deadline lapsed
  // BETWEEN prefill chunks — the pass stopped at the next boundary and the
  // remaining chunks were never executed. Disjoint from deadline_expired
  // (lapsed while still queued) and from failed.
  int64_t deadline_expired_in_flight = 0;
  // Chunk/member boundary polls that let an in-flight prefill continue; the
  // chaos tests compare this across runs to prove aborted requests actually
  // skipped work.
  int64_t abort_checks = 0;
  // Degradation ladder counters (docs/ROBUSTNESS.md).
  int64_t alloc_retries = 0;          // backoff retries of failed acquisitions
  int64_t alloc_retry_successes = 0;  // acquisitions that succeeded on retry
  int64_t shed = 0;                   // submissions rejected by overload shedding
  int64_t watchdog_stalls = 0;        // promises failed by the executor watchdog
  // Process-global fault-injector fires (0 unless a schedule is installed).
  int64_t faults_injected = 0;
  // Lane wall time spent executing dispatched batches and ScoreSync calls,
  // counted once per lane execution however many members it carried.
  double total_execute_s = 0.0;
  // High-water mark of simultaneously executing lanes (concurrent runtime
  // plus inline ScoreSync lanes; a batch occupies one lane).
  int64_t peak_in_flight = 0;
  // Batch occupancy (ISSUE 4): prefill batches dispatched (size-1 batches
  // included) and the requests they carried; batched_requests /
  // batches_dispatched is the mean occupancy /v1/stats reports.
  int64_t batches_dispatched = 0;
  int64_t batched_requests = 0;
  int64_t peak_batch_size = 0;
  // Lane occupancy under packing (ISSUE 9): remaining (miss) tokens the
  // admission decisions stacked into dispatched batches —
  // batched_miss_tokens / batches_dispatched is the miss_tokens_per_batch
  // /v1/stats reports — and candidates passed over because admitting them
  // would have exceeded the activation budget (each skip leaves the
  // request queued for a later decision; the legacy code broke the whole
  // tail instead).
  int64_t batched_miss_tokens = 0;
  int64_t packing_skips = 0;
  // Prefix-aware dispatch: riders held back because their next uncached
  // prefix block was already being computed — by an in-flight batch or by
  // a member of the same decision (BatchPick::prefix_waits). Each waits in
  // the queue and runs warm once the prefix is published.
  int64_t prefix_waits = 0;
  size_t peak_activation_bytes = 0;
  size_t cache_bytes = 0;
  PrefixCacheStats cache;
  // Offload tier (zeros unless cpu_offload_budget_tokens > 0).
  size_t offload_bytes = 0;
  int64_t offload_hit_tokens = 0;
  int64_t offload_demotions = 0;   // GPU-tier evictions written to the tier
  int64_t offload_promotions = 0;  // reloads published back to the GPU tier
  int64_t offload_evictions = 0;   // directory LRU displacements (payload lost)
  int64_t offload_read_hits = 0;   // continuation lookups that found blocks
  int64_t offload_read_misses = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }
  const LlamaModel& model() const { return *model_; }

  using ResponseCallback = std::function<void(Result<ScoringResponse>)>;
  using ResponseFuture = std::future<Result<ScoringResponse>>;

  // --- Synchronous frontend -------------------------------------------
  // Validates and enqueues; returns the request id. Valid in both modes:
  // queued requests are drained by RunPending() or, when the runtime is
  // active, dispatched by the scheduler as executor slots free up.
  Result<int64_t> Submit(ScoringRequest request);
  // Schedules and executes everything queued; returns responses in
  // completion (i.e. scheduling) order. kFailedPrecondition while the
  // concurrent runtime is active — the dispatcher owns the queue then.
  Result<std::vector<ScoringResponse>> RunPending();
  // Convenience: submit one request and run it to completion on the calling
  // thread. Safe concurrently with the runtime and with other ScoreSync
  // calls (each lane has its own activation arena).
  Result<ScoringResponse> ScoreSync(ScoringRequest request);

  // --- Concurrent runtime (ISSUE 2) -----------------------------------
  // Starts the dispatcher and max_concurrent_requests executors. `callback`
  // (may be empty) is invoked on an executor thread for every completion.
  // kFailedPrecondition if already running.
  Status StartWorker(ResponseCallback callback);
  // Drains the queue and all in-flight requests, then joins the runtime.
  // Safe to call when not running (no-op) and from multiple threads.
  void StopWorker();
  bool worker_running() const;
  // Validates and enqueues like Submit, and additionally returns a future
  // fulfilled exactly once when the request completes (in either mode).
  Result<ResponseFuture> SubmitAsync(ScoringRequest request);

  // --- Request lifecycle (ISSUE 5) ------------------------------------
  // The engine id plus the future a lifecycle client polls/cancels with.
  struct AsyncSubmission {
    int64_t id = 0;
    ResponseFuture future;
  };
  // SubmitAsync, with the engine id exposed for Cancel()/Phase().
  Result<AsyncSubmission> SubmitAsyncHandle(ScoringRequest request);
  // Atomic multi-request admission: validates EVERY request up front (none
  // is enqueued unless all pass), then enqueues the whole group under one
  // lock so a scheduling decision sees all members together. Groups of
  // size >= 2 are tagged as deliberate co-batch candidates: PickBatch seeds
  // normally, then fills lanes with the seed's group-mates regardless of
  // their LengthBucket (the caller co-submitted them for one decision), so
  // multi-item API calls are co-scheduled deliberately instead of
  // probabilistically. Futures/ids are index-aligned with `requests`.
  // Per-item completion hook for group submissions (ISSUE 8). Invoked
  // exactly once per item, with the item's index in the submitted group and
  // its terminal result, from whichever thread finalizes the item (an
  // executor lane, the watchdog, Cancel(), or the dispatcher's deadline
  // sweep). Called with NO engine locks held, so the callback may call back
  // into this or another Engine — the ReplicaSet failover path relies on
  // exactly that. May fire before SubmitGroupAsync returns (the index, not
  // the engine id, identifies the item for this reason).
  using GroupCallback =
      std::function<void(size_t item_index, const Result<ScoringResponse>& result)>;
  Result<std::vector<AsyncSubmission>> SubmitGroupAsync(
      std::vector<ScoringRequest> requests, GroupCallback on_done = nullptr);
  // Cancels a request by engine id.
  //  * still queued  -> dequeued, never executes; its future/callback gets
  //    kCancelled and stats().cancelled increments (completed/failed and the
  //    batch counters never see it);
  //  * in flight     -> mark-and-ignore: the prefill finishes but its result
  //    is discarded; the future/callback gets kCancelled and
  //    stats().cancelled_in_flight increments;
  //  * unknown (completed or never existed) -> kNotFound.
  Status Cancel(int64_t id);
  // Cancel restricted to requests that have not left the queue (ISSUE 8):
  // the at-most-once half of replica failover. A still-queued request is
  // dequeued (counts as cancelled, its waiter sees kCancelled) and Ok is
  // returned — the caller may safely re-submit it elsewhere, because it
  // provably never executed here. A dispatched request returns
  // kFailedPrecondition and is NOT touched (no mark-and-ignore): its result
  // is already being computed and will be delivered normally. Unknown ids
  // return kNotFound.
  Status CancelIfQueued(int64_t id);
  // Where a request currently is, for lifecycle polling. kUnknown covers
  // "already finished" as well as "never submitted" — terminal results are
  // delivered through the future, not queryable here.
  enum class RequestPhase { kUnknown, kQueued, kRunning };
  RequestPhase Phase(int64_t id) const;

  // --- JCT profiling (§6.3) -------------------------------------------
  // Times real prefill passes over an (n_input, n_cached) grid and fits the
  // linear JCT model; on success the scheduler uses it instead of the
  // cache-miss-token proxy. Call before StartWorker: profiling wants the
  // machine to itself.
  Result<double> ProfileJct(int64_t max_input_len, int64_t granularity);

  // Coarse serving health (ISSUE 6), the /v1/health answer: kOverloaded
  // while shedding is active; kDegraded (sticky) once the watchdog has had
  // to fail a stuck request; kOk otherwise. Semantics in docs/ROBUSTNESS.md.
  enum class HealthStatus { kOk, kDegraded, kOverloaded };
  HealthStatus Health() const;

  EngineStats stats() const;
  // Runtime invariants, checked under the engine locks; the first violation
  // comes back as kInternal naming it:
  //  * the ledger balances: submitted == the six terminal buckets + queued
  //    + running;
  //  * the in-flight prefix registry is empty when nothing is queued or
  //    running.
  Status CheckInvariants() const;
  // Seconds since engine construction (the queueing-time clock).
  double NowSeconds() const;

 private:
  struct Pending {
    int64_t id = 0;
    ScoringRequest request;
    double arrival_s = 0.0;
    // Absolute engine-clock deadline; < 0 = none (ISSUE 5).
    double deadline_s = -1.0;
    // Co-batch group id; 0 = ungrouped (ISSUE 5).
    int64_t group = 0;
    // Shared so scheduling snapshots can reference the chain without copying
    // it or holding mu_; immutable after construction.
    std::shared_ptr<const std::vector<uint64_t>> chain;
    // Engaged for SubmitAsync requests; fulfilled exactly once on completion.
    std::shared_ptr<std::promise<Result<ScoringResponse>>> promise;
    // Guards that exactly-once: the finalizer and the watchdog race for the
    // exchange, the loser's set_value is dropped (ISSUE 6).
    std::shared_ptr<std::atomic<bool>> fulfilled;
    // Per-item completion hook + the item's index in its submitted group
    // (ISSUE 8); delivered by Fulfill under the same exactly-once guard.
    std::shared_ptr<const GroupCallback> on_done;
    size_t on_done_index = 0;
  };

  // One dispatch decision (ISSUE 4): the requests an executor lane runs as
  // one stacked prefill (size 1 included: a batch of one).
  struct PrefillBatchPending {
    std::vector<Pending> requests;
    // Reserved worker count for the executor's ThreadPool::Lease; set by the
    // dispatcher at admission time.
    int reserve_workers = 0;
    // Chain hashes this batch added to in_flight_blocks_ at dispatch; the
    // lane removes exactly these once its KV is published.
    std::vector<uint64_t> in_flight_hashes;
  };

  // Immutable view of one waiting request, taken under mu_; the scheduling
  // decision itself (cache consultation) then runs WITHOUT mu_, so request
  // submission never convoys behind an in-flight prefix copy holding
  // cache_mu_.
  struct Candidate {
    int64_t id = 0;
    double arrival_s = 0.0;
    int64_t n_input = 0;
    int32_t priority = 0;
    int64_t group = 0;
    std::shared_ptr<const std::vector<uint64_t>> chain;
  };

  // Everything one request's prefill needs from the cache tiers, produced
  // atomically under cache_mu_ by AcquirePrefix and consumed lock-free by
  // the prefill, then released/published by PublishKv.
  struct PrefixAcq {
    Acquisition acq;
    int64_t budget_blocks = 0;      // suffix-discarding budget, in blocks
    int64_t prefix_blocks = 0;      // reused prefix length, in blocks
    int64_t gpu_prefix_blocks = 0;  // subset resident in the primary tier
    int64_t n_cached = 0;           // prefix_blocks * block_size
    KvCacheData prefix;             // assembled contiguous prefix copy
    // Hash chain truncated to budget_blocks; backed by Pending::chain, so
    // the Pending must outlive this struct.
    std::span<const uint64_t> chain;
  };

  Status Validate(const ScoringRequest& request) const;
  // Validation + chain hashing + deadline conversion, everything that can
  // fail before admission; no locks taken.
  Result<Pending> MakePending(
      ScoringRequest request,
      std::shared_ptr<std::promise<Result<ScoringResponse>>> promise) const;
  // Admits fully-built Pendings under ONE mu_ acquisition (ids assigned,
  // submitted counted, dispatcher notified); groups therefore become
  // visible to the scheduler atomically. Returns the assigned ids.
  Result<std::vector<int64_t>> AdmitPendings(std::vector<Pending> pendings);
  Result<int64_t> Enqueue(ScoringRequest request,
                          std::shared_ptr<std::promise<Result<ScoringResponse>>> promise);
  // Removes every waiting request whose deadline has lapsed; requires mu_.
  // The caller fulfills their promises (kDeadlineExceeded) WITHOUT mu_.
  std::vector<Pending> TakeExpiredLocked(double now);
  // Cache acquire + prefix assembly, atomic under cache_mu_.
  Status AcquirePrefix(const Pending& pending, TrackingAllocator& activations,
                       PrefixAcq& out);
  // Cache release + KV publication, atomic under cache_mu_. `pass` may be
  // null: releases the acquisition retaining nothing (the failure path).
  void PublishKv(PrefixAcq& pa, const PrefillResult* pass);
  // AcquirePrefix behind the backoff ladder: up to `retry_max` retries of
  // a kResourceExhausted acquisition, each after an exponential backoff
  // that must not land past the deadline.
  Status AcquirePrefixWithBackoff(const Pending& pending,
                                  TrackingAllocator& activations, int retry_max,
                                  PrefixAcq& out);
  // Runs every member of one lane on the calling thread and the lane's
  // arena, for any size n >= 1: per member, an abort poll and a cache
  // acquire under cache_mu_; then one LlamaModel::PrefillBatch over the
  // live members; then per member, cache release / KV publication under
  // cache_mu_ and the response. Never holds mu_ and never fulfills.
  // A one-member call acquires through the backoff ladder and its pass
  // polls PrefillOptions::abort_check; its failures are its results. In a
  // multi-member call, a member whose acquisition fails, or every member
  // when the stacked pass fails (e.g. exceeding the lane's activation
  // budget), re-enters this routine as a one-member call after the pass —
  // so co-batching never fails a request that would have succeeded alone.
  // Results are index-aligned with `pendings`.
  std::vector<Result<ScoringResponse>> ExecuteOnArena(TrackingAllocator& activations,
                                                      std::span<Pending> pendings);
  // Counts one dispatched batch in the batch stats, then runs it through
  // ExecuteLaneAndFinalize. Results are index-aligned with
  // `batch.requests`; promises are fulfilled there.
  std::vector<Result<ScoringResponse>> ExecuteBatchAndFinalize(
      PrefillBatchPending batch);
  // The lane a dispatched batch and ScoreSync share: executing_ accounting,
  // one activation arena, ExecuteOnArena, removal of `in_flight_hashes`
  // from the prefix registry once every member has published or failed,
  // then the running registry, terminal accounting and promise fulfillment.
  std::vector<Result<ScoringResponse>> ExecuteLaneAndFinalize(
      std::vector<Pending> pendings, std::span<const uint64_t> in_flight_hashes);
  // Snapshot of waiting_ for one scheduling decision; requires mu_.
  std::vector<Candidate> SnapshotQueueLocked() const;
  // One scheduling decision (ISSUE 9): the ids of up to max_batch_size
  // requests to run as one batch, seed first, plus the admission
  // accounting for the stats counters. The packing policy, activation
  // budget, and cost model all live in the scheduler (Scheduler::PickBatch
  // + BatchBudget); this method only refreshes n_cached_now against the
  // live cache under cache_mu_ and maps queue indices back to ids. Called
  // WITHOUT mu_.
  struct BatchDecision {
    std::vector<int64_t> ids;
    size_t projected_bytes = 0;
    int64_t miss_tokens = 0;
    int64_t budget_skips = 0;
    int64_t prefix_waits = 0;
  };
  BatchDecision PickBatchIds(const std::vector<Candidate>& candidates,
                             const Scheduler* scheduler) const;
  // Removes and returns the waiting request with `id`; nullopt if another
  // drain loop claimed it meanwhile. Requires mu_.
  std::optional<Pending> TakeWaitingLocked(int64_t id);
  // The one dispatch step both drain loops share: takes the decision's ids
  // off the queue (an id cancelled since the snapshot drops out), marks
  // them running, adds the packing counters, registers every member's
  // chain hashes [0, budget_blocks) in in_flight_blocks_, and updates the
  // shedding state. Requires mu_ (takes cache_mu_ inside).
  PrefillBatchPending TakeBatchLocked(const BatchDecision& decision);
  void DispatcherLoop();
  void ExecutorLoop(ResponseCallback callback);

  // --- Robustness plumbing (ISSUE 6) -----------------------------------
  // Fulfills a promise (and fires the per-item completion hook, if any)
  // exactly once; the watchdog may have beaten us to it. Every caller holds
  // no engine locks — the hook may re-enter the engine.
  static void Fulfill(
      const std::shared_ptr<std::promise<Result<ScoringResponse>>>& promise,
      const std::shared_ptr<std::atomic<bool>>& fulfilled,
      const std::shared_ptr<const GroupCallback>& on_done, size_t on_done_index,
      Result<ScoringResponse> result);
  static void Fulfill(const Pending& pending, Result<ScoringResponse> result) {
    Fulfill(pending.promise, pending.fulfilled, pending.on_done,
            pending.on_done_index, std::move(result));
  }
  // Cooperative abort poll for one in-flight request: kDeadlineExceeded once
  // its deadline lapses, kCancelled once Cancel() marked it. Called between
  // prefill chunks (PrefillOptions::abort_check) and between batch members;
  // takes mu_ briefly, never cache_mu_.
  Status AbortStatus(const Pending& pending);
  // Registers `pending` in the running registry (Phase/Cancel/watchdog
  // visibility). Requires mu_.
  void MarkRunningLocked(const Pending& pending);
  // Watermark hysteresis: flips shedding_ on/off from the current queue
  // depth. Called wherever waiting_ changes size. Requires mu_.
  void UpdateShedLocked();
  void WatchdogLoop();

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // intra-op workers, shared by the model
  std::unique_ptr<LlamaModel> model_;
  TrackingAllocator profile_activations_;  // ProfileJct only; per-request
                                           // arenas live in Execute
  TrackingAllocator cache_memory_;
  TrackingAllocator offload_memory_;  // the "CPU side" of the offload tier

  // --- Cache tiers, guarded by cache_mu_ ------------------------------
  mutable std::mutex cache_mu_;
  std::unique_ptr<PrefixCache> cache_;
  std::unique_ptr<KvBlockStore> store_;
  std::unique_ptr<OffloadDirectory> offload_dir_;
  std::unordered_map<uint64_t, KvBlock> offload_payloads_;
  // In-flight prefix registry: chain hash -> number of dispatched,
  // not-yet-finished members whose budget prefix contains it. Filled by
  // TakeBatchLocked, emptied by ExecuteLaneAndFinalize after publication;
  // PickBatchIds reads it to mark entries blocked.
  std::unordered_map<uint64_t, int32_t> in_flight_blocks_;
  int64_t offload_hit_tokens_ = 0;
  int64_t offload_demotions_ = 0;
  int64_t offload_promotions_ = 0;

  std::unique_ptr<JctEstimator> estimator_;
  std::unique_ptr<Scheduler> scheduler_;
  // Admission cost model handed to Scheduler::PickBatch (ISSUE 9); built
  // once from the model config + prefill mode, immutable afterwards.
  BatchBudget batch_budget_;

  std::chrono::steady_clock::time_point epoch_;

  // --- Queue, stats, runtime lifecycle, guarded by mu_ ----------------
  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;
  std::vector<Pending> waiting_;
  int64_t next_id_ = 0;
  int64_t next_group_ = 1;  // 0 is the "ungrouped" sentinel
  // Lifecycle tracking (ISSUE 5/6): requests currently between dequeue and
  // finalization (for Phase, in-flight cancellation and the watchdog), and
  // in-flight ids whose results must be discarded on completion
  // (mark-and-ignore).
  struct RunningEntry {
    double started_s = 0.0;       // when the id left the queue
    bool watchdog_fired = false;  // the watchdog fails each id at most once
    std::shared_ptr<std::promise<Result<ScoringResponse>>> promise;
    std::shared_ptr<std::atomic<bool>> fulfilled;
    std::shared_ptr<const GroupCallback> on_done;
    size_t on_done_index = 0;
  };
  std::unordered_map<int64_t, RunningEntry> running_;
  std::unordered_set<int64_t> cancelled_in_flight_;
  EngineStats stats_;
  // Overload shedding state (hysteresis) and sticky watchdog history, both
  // under mu_ (ISSUE 6).
  bool shedding_ = false;
  bool watchdog_ever_fired_ = false;
  bool watchdog_stop_ = false;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
  int in_flight_ = 0;   // dispatcher-admitted requests holding executor slots
  int executing_ = 0;   // all lanes currently inside Execute (incl. ScoreSync)
  bool runtime_running_ = false;
  bool draining_ = false;
  // ProfileJct in progress: excludes StartWorker/RunPending so the
  // estimator/scheduler swap can never race an in-flight pick.
  bool profiling_ = false;

  std::unique_ptr<BlockingQueue<PrefillBatchPending>> exec_queue_;  // dispatcher -> executors
  std::thread dispatcher_;
  std::vector<std::thread> executors_;
};

}  // namespace prefillonly

#endif  // SRC_CORE_ENGINE_H_
