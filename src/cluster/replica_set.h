// Fault-tolerant multi-replica serving (ISSUE 8; docs/CLUSTER.md).
//
// A ReplicaSet runs N in-process Engine replicas behind one submission API —
// the paper's §7.1 deployment shape (one non-parallelized engine per device
// behind a sticky router), grown a robustness layer:
//
//   * PREFIX-AFFINITY ROUTING: requests route by consistent hashing on the
//     first cache block's tokens (AffinityRouter), so each replica's radix
//     PrefixCache concentrates hits instead of diluting them N ways;
//   * LOAD-AWARE SPILL: when the affinity target's outstanding depth exceeds
//     the least-loaded eligible replica by more than `spill_margin`, the
//     candidate order re-sorts by load — stickiness is a preference, not a
//     hot-spot guarantee;
//   * PER-REPLICA CIRCUIT BREAKER: closed → open after
//     `breaker_trip_failures` consecutive strikes (failed hand-offs, engine
//     overload shed, kInternal completions, health-probe faults) → half-open
//     after `breaker_open_ms`, when exactly one affinity-routed request is
//     admitted as the probe — success closes the breaker, failure reopens it;
//   * TRANSPARENT FAILOVER, AT-MOST-ONCE: when a breaker trips, work that is
//     still QUEUED on that replica is withdrawn via Engine::CancelIfQueued
//     and re-submitted to the next candidate. Work already dispatched is
//     never touched — it finishes (or fails) where it runs, so no request
//     can ever execute twice;
//   * DRAINING: Drain(i) stops admitting to a replica while everything
//     queued or in flight there finishes; Rejoin(i) restores it (and resets
//     its breaker);
//   * AGGREGATION: Health() and Stats() answer for the whole set with
//     per-replica breakdowns, the /v1/health and /v1/stats payloads;
//   * ONE COMPUTE POOL: every replica's model runs its fork-joins on one
//     shared ThreadPool of N * (num_threads - 1) + 1 threads (the whole
//     machine for num_threads = 0), so a lone request borrows the idle
//     workers of every replica and the process spawns as many workers as
//     N private pools would.
//
// Failure is a reproducible input here like everywhere else: the hand-off
// path fires the `replica.submit` / `replica.stall` fault sites and the
// health monitor fires `replica.health` (src/common/fault.h), so every
// breaker transition and failover is deterministically testable.
//
// Lock order: set mu_ may be taken before any engine's internal locks (the
// snapshot/stats paths call into engines under mu_), never the reverse —
// engines call back (the per-item completion hook) with no engine locks
// held. The hook, Resubmit and the failover cancels all run with mu_
// RELEASED, so completion can re-enter submission freely.
#ifndef SRC_CLUSTER_REPLICA_SET_H_
#define SRC_CLUSTER_REPLICA_SET_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cluster/affinity_router.h"
#include "src/core/engine.h"

namespace prefillonly {

struct ReplicaSetOptions {
  // Replica count; every replica is constructed from the SAME EngineOptions
  // (same weight_seed), so all replicas score bitwise identically — which is
  // what makes failover invisible to clients.
  int n_replicas = 1;
  EngineOptions engine;

  // Ring smoothness (AffinityRouter vnodes per replica).
  int vnodes_per_replica = 64;
  // Load-aware spill: stay sticky while the affinity target's outstanding
  // depth is within this margin of the least-loaded eligible replica.
  int64_t spill_margin = 4;

  // Circuit breaker: consecutive strikes to open, and how long open lasts
  // before a half-open probe is allowed.
  int breaker_trip_failures = 3;
  int64_t breaker_open_ms = 250;

  // Health monitor: poll period (0 disables the thread; lazy open→half-open
  // transitions still happen on the submission path) and how many
  // consecutive failed probes (fired `replica.health` faults) trip a
  // closed breaker.
  int64_t health_poll_ms = 20;
  int health_trip_failures = 3;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
std::string_view BreakerStateName(BreakerState state);

// Router-level counters for one replica (the engine keeps its own
// EngineStats; these count what the ReplicaSet did AROUND the engine).
struct ReplicaCounters {
  int64_t routed_affinity = 0;   // requests admitted here as the primary
  int64_t routed_spill = 0;      // admitted here by load spill or fallback
  int64_t admit_failures = 0;    // failed hand-offs (injected/shed) observed
  int64_t breaker_trips = 0;     // closed→open transitions (reopens included)
  int64_t half_open_probes = 0;  // probe requests admitted while half-open
  int64_t failed_over_out = 0;   // queued requests withdrawn from here
  int64_t failed_over_in = 0;    // requests that landed here by failover
};

// The ReplicaCounters list: fn(key, field) per counter, key = its name in
// the /v1/stats and /v1/replicas replica objects.
template <typename Fn>
void ForEachReplicaCounter(Fn&& fn, const ReplicaCounters& c) {
  fn("routed_affinity", c.routed_affinity);
  fn("routed_spill", c.routed_spill);
  fn("admit_failures", c.admit_failures);
  fn("breaker_trips", c.breaker_trips);
  fn("half_open_probes", c.half_open_probes);
  fn("failed_over_out", c.failed_over_out);
  fn("failed_over_in", c.failed_over_in);
}

struct ReplicaSnapshot {
  int index = 0;
  BreakerState breaker = BreakerState::kClosed;
  // True iff this replica would take new work right now (breaker admits,
  // not draining, engine not overloaded) — the same predicate Health()
  // counts, so sum(admitting) == 0 exactly when Health() is kOverloaded.
  bool admitting = true;
  bool draining = false;
  bool drained = false;  // draining and nothing left queued or in flight
  int64_t outstanding = 0;
  Engine::HealthStatus engine_health = Engine::HealthStatus::kOk;
  ReplicaCounters counters;
  EngineStats engine;
};

struct ClusterCounters {
  int64_t routed_affinity = 0;
  int64_t routed_spill = 0;
  int64_t failovers = 0;  // queued re-submits actually executed
  int64_t breaker_trips = 0;
  int64_t half_open_probes = 0;
  int64_t unavailable_rejections = 0;  // submissions no replica would take
};

// The ClusterCounters list: fn(key, field) per counter, key = its name in
// the /v1/stats "cluster" object.
template <typename Fn>
void ForEachClusterCounter(Fn&& fn, const ClusterCounters& c) {
  fn("routed_affinity", c.routed_affinity);
  fn("routed_spill", c.routed_spill);
  fn("failovers", c.failovers);
  fn("breaker_trips", c.breaker_trips);
  fn("half_open_probes", c.half_open_probes);
  fn("unavailable_rejections", c.unavailable_rejections);
}

struct ClusterStats {
  // EngineStats merged across replicas by each counter's StatMerge rule
  // (MergeEngineStats).
  EngineStats totals;
  ClusterCounters cluster;
  std::vector<ReplicaSnapshot> replicas;
};

// Folds one replica's counters into `totals`, counter by counter, by the
// rule ForEachEngineCounter names for each.
void MergeEngineStats(EngineStats& totals, const EngineStats& replica);

class ReplicaSet {
 public:
  explicit ReplicaSet(ReplicaSetOptions options);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  int n_replicas() const { return static_cast<int>(engines_.size()); }
  Engine& engine(int index) { return *engines_[static_cast<size_t>(index)]; }
  const ReplicaSetOptions& options() const { return options_; }

  // One admitted item: the CLUSTER id (stable across failover re-submits —
  // engine ids are an implementation detail that changes when a request
  // moves) and a future fulfilled exactly once with the terminal result.
  struct Submission {
    int64_t id = -1;
    Engine::ResponseFuture future;
  };

  // Routes and admits a group atomically on ONE replica (groups are
  // co-scheduled batch candidates, so they must not be split). Transient
  // per-replica failures (injected hand-off faults, overload shed, a
  // draining race) advance to the next candidate; if every candidate
  // refuses, the last transient status is returned (kResourceExhausted when
  // the cluster is genuinely saturated, kUnavailable when hand-offs failed).
  // Validation errors return immediately without consuming candidates.
  Result<std::vector<Submission>> SubmitGroup(std::vector<ScoringRequest> requests);
  Result<Submission> Submit(ScoringRequest request);
  // Submit + wait: the blocking convenience the facade's Score uses.
  Result<ScoringResponse> Score(ScoringRequest request);

  // Cancels by cluster id with Engine::Cancel semantics (queued → withdrawn,
  // in flight → mark-and-ignore, finished/unknown → kNotFound). A request
  // cancelled mid-failover is not re-submitted.
  Status Cancel(int64_t id);
  Engine::RequestPhase Phase(int64_t id) const;

  // --- Administration ---------------------------------------------------
  // Stop admitting to replica `index`; queued and in-flight work there
  // finishes normally (drained once outstanding hits zero). Idempotent.
  Status Drain(int index);
  // Resume admitting: clears draining AND resets the breaker to closed.
  Status Rejoin(int index);
  // Operator/bench kill switch: trip the breaker now (failing over queued
  // work), as if `reason` had struck it breaker_trip_failures times.
  Status Trip(int index, const std::string& reason);

  // Cluster health, the /v1/health answer: kOverloaded when NO replica is
  // admitting work (every breaker open/probing, draining, or engine
  // overloaded) — the 503 + Retry-After shape; kDegraded when any replica
  // is impaired but at least one still admits; kOk otherwise.
  Engine::HealthStatus Health() const;

  ClusterStats Stats() const;
  std::vector<ReplicaSnapshot> Replicas() const;

 private:
  struct Record {
    int64_t cluster_id = -1;
    ScoringRequest request;  // kept for failover re-submit
    std::shared_ptr<std::promise<Result<ScoringResponse>>> promise;
    int replica = -1;
    int64_t engine_id = -1;
    int failovers = 0;
    // Bumped at every hand-off attempt; guards the post-admit engine-id
    // write against a completion that already moved the record on.
    int attempt = 0;
    bool failing_over = false;       // withdrawal in progress; re-submit on kCancelled
    bool cancelled_by_client = false;
    bool is_probe = false;           // half-open probe; completion moves the breaker
  };

  struct ReplicaState {
    BreakerState breaker = BreakerState::kClosed;
    double open_until_s = 0.0;
    int consecutive_failures = 0;
    int health_fault_streak = 0;
    bool probe_in_flight = false;
    bool draining = false;
    int64_t outstanding = 0;  // admitted here, not yet completed
    ReplicaCounters counters;
  };

  // A withdrawal planned under mu_ and executed without it; replica and
  // engine_id are captured at plan time (Complete may move the record).
  struct FailoverItem {
    std::shared_ptr<Record> record;
    int replica = -1;
    int64_t engine_id = -1;
  };

  double NowSeconds() const;
  bool AdmittingLocked(int r) const;
  void LazyTransitionsLocked(double now);
  // Candidate replicas in try-order for `key`: ring order, ineligible
  // replicas dropped, load-spill re-sort applied, engine-overloaded
  // replicas deferred to the back (still tried, so single-replica shed
  // propagates honestly as 429).
  std::vector<int> CandidateOrderLocked(uint64_t key, double now);
  // A strike against r; trips the breaker (collecting failover work) after
  // breaker_trip_failures consecutive ones.
  void StrikeLocked(int r, std::vector<FailoverItem>& out);
  void TripLocked(int r, std::vector<FailoverItem>& out);
  void CollectFailoverLocked(int r, std::vector<FailoverItem>& out);
  // Withdraw each item via CancelIfQueued; each success synchronously runs
  // the completion hook, which re-submits. Never called with mu_ held.
  void ExecuteFailover(std::vector<FailoverItem> items);

  // Routes `records` (all or nothing, one replica) and fills engine ids.
  // `hook` is the per-item completion callback bound to `records`;
  // `failover` marks a re-submit (counted as failed_over_in, never as
  // affinity-routed).
  Status RouteRecords(const std::vector<std::shared_ptr<Record>>& records,
                      const Engine::GroupCallback& hook, bool failover);
  // Terminal delivery for one record (runs on whatever thread finalized it).
  void Complete(const std::shared_ptr<Record>& record,
                const Result<ScoringResponse>& result);
  void Resubmit(const std::shared_ptr<Record>& record);
  void MonitorLoop();

  ReplicaSetOptions options_;
  AffinityRouter router_;

  mutable std::mutex mu_;
  std::vector<ReplicaState> states_;
  std::unordered_map<int64_t, std::shared_ptr<Record>> live_;
  int64_t next_cluster_id_ = 1;
  ClusterCounters cluster_;
  bool monitor_stop_ = false;
  std::condition_variable monitor_cv_;
  std::thread monitor_;

  // Declared last: engines stop in ~ReplicaSet while every member above is
  // still alive (their drain runs completion hooks that touch mu_/live_).
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace prefillonly

#endif  // SRC_CLUSTER_REPLICA_SET_H_
