#include "src/cluster/replica_set.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/common/fault.h"
#include "src/common/logging.h"

namespace prefillonly {
namespace {

// When a breaker trips, its replica's queued-but-unstarted work moves to
// another replica; a request moved this many times fails with kUnavailable.
constexpr int kMaxFailoversPerRequest = 2;

// Width of the one compute pool the replicas share: each replica brings
// the num_threads - 1 workers a standalone engine would spawn, and a call's
// own thread is shard 0, so the process spawns exactly as many workers as
// N private pools. num_threads <= 0 means the whole machine, once.
int SharedPoolWidth(int n_replicas, int num_threads) {
  if (num_threads <= 0) {
    return 0;  // ThreadPool resolves 0 to hardware_concurrency
  }
  return n_replicas * (num_threads - 1) + 1;
}

}  // namespace

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

ReplicaSet::ReplicaSet(ReplicaSetOptions options)
    : options_(std::move(options)),
      router_(std::max(1, options_.n_replicas), options_.vnodes_per_replica) {
  options_.n_replicas = std::max(1, options_.n_replicas);
  states_.resize(static_cast<size_t>(options_.n_replicas));
  engines_.reserve(static_cast<size_t>(options_.n_replicas));
  // One pool for every replica's lanes: a lone prefill borrows the idle
  // workers of all replicas, concurrent ones split them. Bits do not depend
  // on how many workers a fork gets. The engines share ownership, so the
  // pool is destroyed after the last of them.
  const auto pool = std::make_shared<ThreadPool>(
      SharedPoolWidth(options_.n_replicas, options_.engine.num_threads));
  for (int i = 0; i < options_.n_replicas; ++i) {
    engines_.push_back(std::make_unique<Engine>(options_.engine, pool));
    // Every replica runs its own concurrent runtime; results come back
    // through the per-item completion hook.
    Status started = engines_.back()->StartWorker();
    if (!started.ok()) {
      PO_LOG_WARNING << "replica " << i << " runtime failed to start: "
                     << started.ToString();
    }
  }
  if (options_.health_poll_ms > 0) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
}

ReplicaSet::~ReplicaSet() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) {
    monitor_.join();
  }
  // Each drain runs every admitted record's completion hook, which delivers
  // its client promise via Complete (all members are still alive — engines_
  // is declared last for exactly this).
  for (auto& engine : engines_) {
    engine->StopWorker();
  }
  // A record still live was caught mid-hand-off by shutdown; fail it so no
  // client future is left broken.
  std::vector<std::shared_ptr<Record>> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.reserve(live_.size());
    for (auto& [id, record] : live_) {
      leftovers.push_back(record);
    }
    live_.clear();
  }
  for (auto& record : leftovers) {
    record->promise->set_value(
        Result<ScoringResponse>(Status::Unavailable("replica set shut down")));
  }
}

double ReplicaSet::NowSeconds() const { return engines_[0]->NowSeconds(); }

bool ReplicaSet::AdmittingLocked(int r) const {
  const ReplicaState& st = states_[static_cast<size_t>(r)];
  if (st.draining || st.breaker == BreakerState::kOpen) {
    return false;
  }
  // Half-open admits exactly one request — the probe.
  if (st.breaker == BreakerState::kHalfOpen && st.probe_in_flight) {
    return false;
  }
  return true;
}

void ReplicaSet::LazyTransitionsLocked(double now) {
  for (ReplicaState& st : states_) {
    if (st.breaker == BreakerState::kOpen && now >= st.open_until_s) {
      st.breaker = BreakerState::kHalfOpen;
      st.probe_in_flight = false;
    }
  }
}

std::vector<int> ReplicaSet::CandidateOrderLocked(uint64_t key, double now) {
  LazyTransitionsLocked(now);
  std::vector<int> ready;
  std::vector<int> overloaded;
  for (int r : router_.PreferenceOrder(key)) {
    if (!AdmittingLocked(r)) {
      continue;
    }
    // Health-gated routing: an engine that is actively shedding goes to the
    // back of the order instead of out of it — if EVERY candidate is
    // overloaded the request still reaches one, so its 429 propagates
    // honestly instead of turning into a vague 503.
    if (engines_[static_cast<size_t>(r)]->Health() ==
        Engine::HealthStatus::kOverloaded) {
      overloaded.push_back(r);
    } else {
      ready.push_back(r);
    }
  }
  if (!ready.empty()) {
    int64_t min_outstanding = states_[static_cast<size_t>(ready[0])].outstanding;
    for (int r : ready) {
      min_outstanding =
          std::min(min_outstanding, states_[static_cast<size_t>(r)].outstanding);
    }
    // Load-aware spill: stickiness holds while the affinity target is within
    // spill_margin of the least-loaded candidate; past that, load wins (the
    // stable_sort keeps ring order among equals, so the re-sort is still
    // deterministic).
    if (states_[static_cast<size_t>(ready[0])].outstanding >
        min_outstanding + options_.spill_margin) {
      std::stable_sort(ready.begin(), ready.end(), [this](int a, int b) {
        return states_[static_cast<size_t>(a)].outstanding <
               states_[static_cast<size_t>(b)].outstanding;
      });
    }
  }
  ready.insert(ready.end(), overloaded.begin(), overloaded.end());
  return ready;
}

void ReplicaSet::StrikeLocked(int r, std::vector<FailoverItem>& out) {
  ReplicaState& st = states_[static_cast<size_t>(r)];
  if (st.breaker != BreakerState::kClosed) {
    return;  // already open (or probing — the probe outcome decides there)
  }
  st.consecutive_failures += 1;
  if (st.consecutive_failures >= options_.breaker_trip_failures) {
    TripLocked(r, out);
  }
}

void ReplicaSet::TripLocked(int r, std::vector<FailoverItem>& out) {
  ReplicaState& st = states_[static_cast<size_t>(r)];
  st.breaker = BreakerState::kOpen;
  st.open_until_s =
      NowSeconds() + static_cast<double>(options_.breaker_open_ms) / 1e3;
  st.consecutive_failures = 0;
  st.probe_in_flight = false;
  st.counters.breaker_trips += 1;
  cluster_.breaker_trips += 1;
  CollectFailoverLocked(r, out);
}

void ReplicaSet::CollectFailoverLocked(int r, std::vector<FailoverItem>& out) {
  for (auto& [id, record] : live_) {
    if (record->replica != r || record->failing_over ||
        record->cancelled_by_client || record->engine_id < 0 ||
        record->failovers >= kMaxFailoversPerRequest) {
      continue;
    }
    record->failing_over = true;
    out.push_back({record, record->replica, record->engine_id});
  }
}

void ReplicaSet::ExecuteFailover(std::vector<FailoverItem> items) {
  for (FailoverItem& item : items) {
    // At-most-once: only a request provably still queued is withdrawn. A
    // success runs the completion hook synchronously (kCancelled), and
    // Complete re-submits it elsewhere before this call returns.
    Status s =
        engines_[static_cast<size_t>(item.replica)]->CancelIfQueued(item.engine_id);
    if (s.ok()) {
      continue;
    }
    // Already dispatched (or already finished): it rides out where it is.
    std::lock_guard<std::mutex> lock(mu_);
    item.record->failing_over = false;
  }
}

Status ReplicaSet::RouteRecords(const std::vector<std::shared_ptr<Record>>& records,
                                const Engine::GroupCallback& hook, bool failover) {
  const auto n = static_cast<int64_t>(records.size());
  const uint64_t key =
      AffinityKey(records[0]->request.tokens, options_.engine.block_size);
  const int primary = router_.Primary(key);
  std::vector<int> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    order = CandidateOrderLocked(key, NowSeconds());
  }
  FaultInjector& injector = FaultInjector::Global();
  Status last = Status::Unavailable(
      "no replica is admitting requests (all tripped, probing, or draining)");
  for (int r : order) {
    ReplicaState& st = states_[static_cast<size_t>(r)];
    // Injected router-side latency: the hand-off wedges for stall_ms before
    // the replica sees anything (a slow interconnect, a GC'd sidecar).
    if (injector.Fire(fault::kReplicaStall)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(injector.stall_ms()));
    }
    bool probe = false;
    std::vector<int> attempts(records.size(), 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      LazyTransitionsLocked(NowSeconds());
      if (!AdmittingLocked(r)) {
        continue;  // state moved while we tried earlier candidates
      }
      if (st.breaker == BreakerState::kHalfOpen) {
        probe = true;
        st.probe_in_flight = true;
        st.counters.half_open_probes += 1;
        cluster_.half_open_probes += 1;
      }
      // Optimistic assignment BEFORE the engine sees the group: the
      // completion hook may fire before SubmitGroupAsync returns, and
      // Complete needs record->replica to be right by then.
      st.outstanding += n;
      for (size_t i = 0; i < records.size(); ++i) {
        records[i]->replica = r;
        records[i]->engine_id = -1;
        records[i]->is_probe = probe;
        attempts[i] = ++records[i]->attempt;
      }
    }
    std::vector<FailoverItem> planned;
    if (injector.Fire(fault::kReplicaSubmit)) {
      // The hand-off itself failed — the replica never saw the group.
      last = Status::Unavailable("replica " + std::to_string(r) +
                                 ": injected hand-off failure (replica.submit)");
      {
        std::lock_guard<std::mutex> lock(mu_);
        st.outstanding -= n;
        st.counters.admit_failures += 1;
        for (auto& record : records) {
          record->replica = -1;
          record->is_probe = false;
        }
        if (probe) {
          st.probe_in_flight = false;
          TripLocked(r, planned);  // a failed probe reopens the breaker
        } else {
          StrikeLocked(r, planned);
        }
      }
      ExecuteFailover(std::move(planned));
      continue;
    }
    std::vector<ScoringRequest> copies;
    copies.reserve(records.size());
    for (const auto& record : records) {
      copies.push_back(record->request);
    }
    auto admitted =
        engines_[static_cast<size_t>(r)]->SubmitGroupAsync(std::move(copies), hook);
    if (admitted.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        st.consecutive_failures = 0;
        for (size_t i = 0; i < records.size(); ++i) {
          // The attempt guard skips records a racing Complete has already
          // finished or moved to another hand-off.
          if (records[i]->attempt == attempts[i] && records[i]->replica == r &&
              records[i]->engine_id < 0) {
            records[i]->engine_id = admitted.value()[i].id;
          }
        }
        if (r == primary && !failover) {
          st.counters.routed_affinity += n;
          cluster_.routed_affinity += n;
        } else {
          st.counters.routed_spill += n;
          cluster_.routed_spill += n;
        }
        if (failover) {
          st.counters.failed_over_in += n;
        }
        // A trip that landed while we were inside the engine would have
        // missed these just-queued ids; withdraw them like the rest.
        if (st.breaker == BreakerState::kOpen) {
          CollectFailoverLocked(r, planned);
        }
      }
      ExecuteFailover(std::move(planned));
      return Status::Ok();
    }
    const Status failed = admitted.status();
    const bool transient = failed.code() == StatusCode::kResourceExhausted ||
                           failed.code() == StatusCode::kFailedPrecondition;
    {
      std::lock_guard<std::mutex> lock(mu_);
      st.outstanding -= n;
      for (auto& record : records) {
        record->replica = -1;
        record->is_probe = false;
      }
      if (transient) {
        st.counters.admit_failures += 1;
        if (probe) {
          st.probe_in_flight = false;
          TripLocked(r, planned);
        } else {
          StrikeLocked(r, planned);
        }
      } else if (probe) {
        // Validation error: says nothing about the replica — the probe slot
        // reopens for the next request.
        st.probe_in_flight = false;
      }
    }
    ExecuteFailover(std::move(planned));
    if (!transient) {
      return failed;  // a validation error is the caller's, not the cluster's
    }
    last = failed;  // overload shed / draining race: try the next candidate
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    cluster_.unavailable_rejections += n;
  }
  return last;
}

Result<std::vector<ReplicaSet::Submission>> ReplicaSet::SubmitGroup(
    std::vector<ScoringRequest> requests) {
  if (requests.empty()) {
    return Status::InvalidArgument("request group is empty");
  }
  std::vector<std::shared_ptr<Record>> records;
  std::vector<Submission> submissions;
  records.reserve(requests.size());
  submissions.reserve(requests.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ScoringRequest& request : requests) {
      auto record = std::make_shared<Record>();
      record->cluster_id = next_cluster_id_++;
      record->request = std::move(request);
      record->promise =
          std::make_shared<std::promise<Result<ScoringResponse>>>();
      Submission submission;
      submission.id = record->cluster_id;
      submission.future = record->promise->get_future();
      submissions.push_back(std::move(submission));
      live_.emplace(record->cluster_id, record);
      records.push_back(std::move(record));
    }
  }
  auto hook = [this, records](size_t index, const Result<ScoringResponse>& result) {
    Complete(records[index], result);
  };
  Status routed = RouteRecords(records, hook, /*failover=*/false);
  if (!routed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& record : records) {
      live_.erase(record->cluster_id);
    }
    return routed;
  }
  return submissions;
}

Result<ReplicaSet::Submission> ReplicaSet::Submit(ScoringRequest request) {
  std::vector<ScoringRequest> group;
  group.push_back(std::move(request));
  auto submitted = SubmitGroup(std::move(group));
  if (!submitted.ok()) {
    return submitted.status();
  }
  return std::move(submitted.value()[0]);
}

Result<ScoringResponse> ReplicaSet::Score(ScoringRequest request) {
  auto submitted = Submit(std::move(request));
  if (!submitted.ok()) {
    return submitted.status();
  }
  return submitted.value().future.get();
}

Status ReplicaSet::Cancel(int64_t id) {
  int replica = -1;
  int64_t engine_id = -1;
  bool moving = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(id);
    if (it == live_.end()) {
      return Status::NotFound("request " + std::to_string(id) +
                              " is not queued or in flight");
    }
    // The flag stops any failover re-submit and makes Complete deliver
    // kCancelled even if the result beats the engine-level cancel below.
    it->second->cancelled_by_client = true;
    replica = it->second->replica;
    engine_id = it->second->engine_id;
    moving = it->second->failing_over || engine_id < 0;
  }
  if (!moving && replica >= 0) {
    // kNotFound here means the completion raced us; the flag above already
    // decided what the client sees, so the cancel still "took".
    (void)engines_[static_cast<size_t>(replica)]->Cancel(engine_id);
  }
  return Status::Ok();
}

Engine::RequestPhase ReplicaSet::Phase(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  if (it == live_.end()) {
    return Engine::RequestPhase::kUnknown;
  }
  const Record& record = *it->second;
  if (record.replica < 0 || record.engine_id < 0 || record.failing_over) {
    return Engine::RequestPhase::kQueued;  // between replicas right now
  }
  return engines_[static_cast<size_t>(record.replica)]->Phase(record.engine_id);
}

void ReplicaSet::Complete(const std::shared_ptr<Record>& record,
                          const Result<ScoringResponse>& result) {
  std::vector<FailoverItem> planned;
  bool resubmit = false;
  bool deliver = false;
  bool overridden_cancel = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int r = record->replica;
    ReplicaState& st = states_[static_cast<size_t>(r)];
    st.outstanding -= 1;
    if (record->is_probe) {
      record->is_probe = false;
      st.probe_in_flight = false;
      if (st.breaker == BreakerState::kHalfOpen) {
        if (result.ok()) {
          // The probe came back healthy: the breaker closes and the replica
          // rejoins the rotation with a clean slate.
          st.breaker = BreakerState::kClosed;
          st.consecutive_failures = 0;
          st.health_fault_streak = 0;
        } else if (result.status().code() == StatusCode::kInternal ||
                   result.status().code() == StatusCode::kResourceExhausted) {
          TripLocked(r, planned);  // probe failed: reopen
        }
        // kCancelled / kDeadlineExceeded say nothing about replica health:
        // stay half-open, the next affinity request probes again.
      }
    } else if (st.breaker == BreakerState::kClosed &&
               !record->cancelled_by_client) {
      if (result.ok()) {
        st.consecutive_failures = 0;
      } else if (result.status().code() == StatusCode::kInternal) {
        // Execution failures (watchdog-declared stalls included) strike the
        // breaker like failed hand-offs do.
        StrikeLocked(r, planned);
      }
    }
    if (record->failing_over && !record->cancelled_by_client &&
        result.status().code() == StatusCode::kCancelled &&
        record->failovers < kMaxFailoversPerRequest) {
      // This kCancelled is our own withdrawal, not a client action: the
      // request provably never ran here, so it may run elsewhere.
      record->failing_over = false;
      record->failovers += 1;
      st.counters.failed_over_out += 1;
      cluster_.failovers += 1;
      resubmit = true;
    } else {
      deliver = true;
      overridden_cancel = record->cancelled_by_client && result.ok();
      live_.erase(record->cluster_id);
    }
  }
  if (deliver) {
    if (overridden_cancel) {
      // The cancel landed while the request was being routed; mirror the
      // engine's mark-and-ignore contract.
      record->promise->set_value(Result<ScoringResponse>(Status::Cancelled(
          "request cancelled while in flight; result discarded")));
    } else {
      record->promise->set_value(result);
    }
  }
  if (resubmit) {
    Resubmit(record);
  }
  ExecuteFailover(std::move(planned));
}

void ReplicaSet::Resubmit(const std::shared_ptr<Record>& record) {
  std::vector<std::shared_ptr<Record>> records{record};
  auto hook = [this, records](size_t, const Result<ScoringResponse>& result) {
    Complete(records[0], result);
  };
  Status routed = RouteRecords(records, hook, /*failover=*/true);
  if (routed.ok()) {
    return;
  }
  // Nowhere to move it: the request fails with a structured, retryable
  // error instead of hanging (the facade RetryPolicy handles both codes).
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(record->cluster_id);
  }
  record->promise->set_value(Result<ScoringResponse>(
      routed.code() == StatusCode::kResourceExhausted
          ? routed
          : Status::Unavailable("failover re-submit failed: " + routed.message())));
}

Status ReplicaSet::Drain(int index) {
  if (index < 0 || index >= n_replicas()) {
    return Status::InvalidArgument("replica index " + std::to_string(index) +
                                   " out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  states_[static_cast<size_t>(index)].draining = true;
  return Status::Ok();
}

Status ReplicaSet::Rejoin(int index) {
  if (index < 0 || index >= n_replicas()) {
    return Status::InvalidArgument("replica index " + std::to_string(index) +
                                   " out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& st = states_[static_cast<size_t>(index)];
  st.draining = false;
  st.breaker = BreakerState::kClosed;
  st.consecutive_failures = 0;
  st.health_fault_streak = 0;
  st.probe_in_flight = false;
  return Status::Ok();
}

Status ReplicaSet::Trip(int index, const std::string& reason) {
  if (index < 0 || index >= n_replicas()) {
    return Status::InvalidArgument("replica index " + std::to_string(index) +
                                   " out of range");
  }
  PO_LOG_WARNING << "replica " << index << " tripped: " << reason;
  std::vector<FailoverItem> planned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TripLocked(index, planned);
  }
  ExecuteFailover(std::move(planned));
  return Status::Ok();
}

Engine::HealthStatus ReplicaSet::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  int admitting = 0;
  bool impaired = false;
  for (int r = 0; r < n_replicas(); ++r) {
    const bool admits = AdmittingLocked(r);
    const Engine::HealthStatus engine_health =
        engines_[static_cast<size_t>(r)]->Health();
    if (admits && engine_health != Engine::HealthStatus::kOverloaded) {
      ++admitting;
    }
    if (!admits || engine_health != Engine::HealthStatus::kOk) {
      impaired = true;
    }
  }
  if (admitting == 0) {
    return Engine::HealthStatus::kOverloaded;  // the 503 + Retry-After shape
  }
  return impaired ? Engine::HealthStatus::kDegraded : Engine::HealthStatus::kOk;
}

std::vector<ReplicaSnapshot> ReplicaSet::Replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReplicaSnapshot> out;
  out.reserve(states_.size());
  for (int r = 0; r < n_replicas(); ++r) {
    const ReplicaState& st = states_[static_cast<size_t>(r)];
    ReplicaSnapshot snapshot;
    snapshot.index = r;
    snapshot.breaker = st.breaker;
    snapshot.draining = st.draining;
    snapshot.drained = st.draining && st.outstanding == 0;
    snapshot.outstanding = st.outstanding;
    snapshot.engine_health = engines_[static_cast<size_t>(r)]->Health();
    snapshot.admitting =
        AdmittingLocked(r) &&
        snapshot.engine_health != Engine::HealthStatus::kOverloaded;
    snapshot.counters = st.counters;
    snapshot.engine = engines_[static_cast<size_t>(r)]->stats();
    out.push_back(std::move(snapshot));
  }
  return out;
}

void MergeEngineStats(EngineStats& totals, const EngineStats& replica) {
  ForEachEngineCounter(
      [](const char* /*key*/, StatMerge merge, auto& total, const auto& value) {
        switch (merge) {
          case StatMerge::kSum:
            total += value;
            break;
          case StatMerge::kMax:
            total = std::max(total, value);
            break;
          case StatMerge::kOnce:
            total = value;
            break;
        }
      },
      totals, replica);
}

ClusterStats ReplicaSet::Stats() const {
  ClusterStats stats;
  stats.replicas = Replicas();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.cluster = cluster_;
  }
  for (const ReplicaSnapshot& r : stats.replicas) {
    MergeEngineStats(stats.totals, r.engine);
  }
  return stats;
}

void ReplicaSet::MonitorLoop() {
  const auto poll =
      std::chrono::milliseconds(std::max<int64_t>(options_.health_poll_ms, 1));
  std::unique_lock<std::mutex> lock(mu_);
  while (!monitor_stop_) {
    monitor_cv_.wait_for(lock, poll);
    if (monitor_stop_) {
      break;
    }
    LazyTransitionsLocked(NowSeconds());
    std::vector<FailoverItem> planned;
    for (int r = 0; r < n_replicas(); ++r) {
      ReplicaState& st = states_[static_cast<size_t>(r)];
      // One health probe per replica per tick, in replica order — so hit
      // index (tick-1)*n_replicas + replica + 1 at the replica.health site,
      // which is what makes monitor-driven trips schedulable in tests. A
      // fired fault is a failed probe; a streak of them trips the breaker.
      if (FaultInjector::Global().Fire(fault::kReplicaHealth)) {
        st.health_fault_streak += 1;
        if (st.breaker == BreakerState::kClosed &&
            st.health_fault_streak >= options_.health_trip_failures) {
          st.health_fault_streak = 0;
          TripLocked(r, planned);
        }
      } else {
        st.health_fault_streak = 0;
      }
    }
    if (!planned.empty()) {
      lock.unlock();
      ExecuteFailover(std::move(planned));
      lock.lock();
    }
  }
}

}  // namespace prefillonly
