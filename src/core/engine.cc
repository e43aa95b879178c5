#include "src/core/engine.h"

#include <algorithm>
#include <cassert>

#include "src/common/fault.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/sched/batch_cost.h"

namespace prefillonly {

Engine::Engine(EngineOptions options, std::shared_ptr<ThreadPool> pool)
    : options_(std::move(options)),
      pool_(std::move(pool)),
      scheduler_(options_.policy, options_.lambda, &estimator_, options_.batch_packing),
      epoch_(std::chrono::steady_clock::now()) {
  assert(options_.model.Valid());
  options_.max_concurrent_requests = std::max(options_.max_concurrent_requests, 1);
  options_.max_batch_size = std::max(options_.max_batch_size, 1);
  if (options_.shed_high_watermark > 0 && options_.shed_low_watermark <= 0) {
    options_.shed_low_watermark = options_.shed_high_watermark / 2;
  }
  options_.shed_low_watermark =
      std::min(options_.shed_low_watermark, options_.shed_high_watermark);
  if (!options_.fault_schedule.empty()) {
    // Process-global by design: a fault schedule models the process's
    // environment (a failing disk, a flaky NIC), not one engine instance.
    if (Status s = FaultInjector::Global().LoadSchedule(options_.fault_schedule);
        !s.ok()) {
      PO_LOG_WARNING << "fault_schedule ignored: " << s.message();
    }
  }
  if (pool_ == nullptr) {
    pool_ = std::make_shared<ThreadPool>(options_.num_threads);
  }
  model_ = std::make_unique<LlamaModel>(options_.model, options_.weight_seed,
                                        options_.kernel_backend);
  model_->SetThreadPool(pool_.get());
  const int64_t pool_blocks =
      options_.cache_budget_tokens / std::max(options_.block_size, 1);
  cache_ = std::make_unique<PrefixCache>(options_.block_size, pool_blocks);
  store_ = std::make_unique<KvBlockStore>(options_.model, options_.block_size,
                                          cache_memory_);
  offload_dir_ = std::make_unique<OffloadDirectory>(
      options_.cpu_offload_budget_tokens / std::max(options_.block_size, 1));
  // The listener fires from cache_ operations, which the engine only invokes
  // with cache_mu_ held — it may touch every cache-tier member.
  cache_->SetEvictionListener([this](uint64_t hash, BlockId block, int64_t depth) {
    if (offload_dir_->capacity_blocks() <= 0) {
      store_->Drop(block);
      return;
    }
    // Demote instead of discard (§9): copy the payload to the CPU tier. An
    // injected write error loses the demotion — the block degrades to a
    // plain discard and a later request recomputes it.
    KvBlock payload = store_->Take(block);
    if (payload.empty()) {
      return;
    }
    if (FaultInjector::Global().Fire(fault::kOffloadWrite)) {
      return;
    }
    offload_payloads_[hash] = CloneBlock(payload, offload_memory_);
    ++offload_demotions_;
    // Insert reports the displaced hash as an optional: 0 is a valid chain
    // hash, so "nothing evicted" must not be encoded in-band.
    if (const auto displaced = offload_dir_->Insert(hash, depth)) {
      offload_payloads_.erase(*displaced);
    }
  });
  batch_budget_ = MakeBatchBudget(options_.model, options_.mode,
                                  options_.activation_budget_bytes,
                                  options_.block_size);
}

Engine::~Engine() {
  StopWorker();
  // Requests admitted while the runtime was stopped and never drained:
  // their waiters get a Status, not a broken promise, and their hooks fire.
  std::vector<Pending> stranded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stranded = std::move(waiting_);
    waiting_.clear();
    stats_.cancelled += static_cast<int64_t>(stranded.size());
  }
  for (Pending& pending : stranded) {
    Fulfill(pending, Result<ScoringResponse>(
                         Status::Cancelled("engine destroyed before dispatch")));
  }
}

double Engine::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

Status Engine::Validate(const ScoringRequest& request) const {
  if (request.tokens.empty()) {
    return Status::InvalidArgument("request has no tokens");
  }
  if (static_cast<int64_t>(request.tokens.size()) > options_.max_input_length) {
    return Status::OutOfRange("request exceeds the maximum input length");
  }
  if (request.allowed_tokens.empty()) {
    return Status::InvalidArgument("allowed token list is empty");
  }
  for (int32_t t : request.tokens) {
    if (t < 0 || t >= options_.model.vocab_size) {
      return Status::InvalidArgument("token id out of vocabulary range");
    }
  }
  for (int32_t t : request.allowed_tokens) {
    if (t < 0 || t >= options_.model.vocab_size) {
      return Status::InvalidArgument("allowed token out of vocabulary range");
    }
  }
  return Status::Ok();
}

Result<Engine::Pending> Engine::MakePending(
    ScoringRequest request,
    std::shared_ptr<std::promise<Result<ScoringResponse>>> promise) const {
  if (Status s = Validate(request); !s.ok()) {
    return s;
  }
  Pending pending;
  pending.request = std::move(request);
  pending.arrival_s = NowSeconds();
  if (pending.request.deadline_ms == 0) {
    // Reject at the door: a request whose budget is already spent must not
    // cost a queue slot, let alone a prefill (ISSUE 5).
    return Status::DeadlineExceeded("deadline expired before submission");
  }
  if (pending.request.deadline_ms > 0) {
    pending.deadline_s =
        pending.arrival_s + static_cast<double>(pending.request.deadline_ms) / 1e3;
  }
  pending.chain = std::make_shared<const std::vector<uint64_t>>(
      BlockHashChain(pending.request.tokens, options_.block_size));
  pending.promise = std::move(promise);
  if (pending.promise != nullptr) {
    pending.fulfilled = std::make_shared<std::atomic<bool>>(false);
  }
  return pending;
}

void Engine::Fulfill(
    const std::shared_ptr<std::promise<Result<ScoringResponse>>>& promise,
    const std::shared_ptr<std::atomic<bool>>& fulfilled,
    const std::shared_ptr<const GroupCallback>& on_done, size_t on_done_index,
    Result<ScoringResponse> result) {
  const bool has_hook = on_done != nullptr && *on_done != nullptr;
  if (promise == nullptr && !has_hook) {
    return;
  }
  if (fulfilled != nullptr && fulfilled->exchange(true)) {
    return;  // the watchdog (or the finalizer) already delivered
  }
  // Hook before promise: a waiter woken by the future must observe whatever
  // bookkeeping the hook's owner (e.g. a ReplicaSet) did for this item.
  if (has_hook) {
    (*on_done)(on_done_index, result);
  }
  if (promise != nullptr) {
    promise->set_value(std::move(result));
  }
}

Status Engine::AbortStatus(const Pending& pending) {
  if (pending.deadline_s >= 0.0 && NowSeconds() >= pending.deadline_s) {
    return Status::DeadlineExceeded(
        "deadline expired mid-prefill; remaining chunks skipped");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (cancelled_in_flight_.count(pending.id) > 0) {
    return Status::Cancelled("request cancelled mid-prefill; remaining chunks skipped");
  }
  ++stats_.abort_checks;
  return Status::Ok();
}

void Engine::MarkRunningLocked(const Pending& pending) {
  auto [it, inserted] = running_.try_emplace(pending.id);
  if (inserted) {
    it->second.started_s = NowSeconds();
    it->second.promise = pending.promise;
    it->second.fulfilled = pending.fulfilled;
    it->second.on_done = pending.on_done;
    it->second.on_done_index = pending.on_done_index;
  }
}

void Engine::UpdateShedLocked() {
  if (options_.shed_high_watermark <= 0) {
    return;
  }
  const auto depth = static_cast<int64_t>(waiting_.size());
  if (!shedding_ && depth >= options_.shed_high_watermark) {
    shedding_ = true;
  } else if (shedding_ && depth <= options_.shed_low_watermark) {
    shedding_ = false;
  }
}

Result<std::vector<int64_t>> Engine::AdmitPendings(std::vector<Pending> pendings) {
  std::vector<int64_t> ids;
  ids.reserve(pendings.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      return Status::FailedPrecondition("engine is stopping; request rejected");
    }
    // Overload shedding (ISSUE 6): while above the high watermark, reject
    // instead of admitting — the 429 + Retry-After path. All-or-nothing for
    // groups, like every other admission failure; shed requests never count
    // as submitted, so the terminal-accounting balance is unaffected.
    UpdateShedLocked();
    if (shedding_) {
      stats_.shed += static_cast<int64_t>(pendings.size());
      return Status::ResourceExhausted(
          "engine overloaded: " + std::to_string(waiting_.size()) +
          " requests queued; retry later");
    }
    for (Pending& pending : pendings) {
      pending.id = next_id_++;
      ++stats_.submitted;
      ids.push_back(pending.id);
      waiting_.push_back(std::move(pending));
    }
    UpdateShedLocked();
  }
  dispatch_cv_.notify_all();
  return ids;
}

Result<std::vector<Engine::AsyncSubmission>> Engine::SubmitGroupAsync(
    std::vector<ScoringRequest> requests, GroupCallback on_done) {
  if (requests.empty()) {
    return Status::InvalidArgument("request group is empty");
  }
  // All-or-nothing admission: every request is validated (and its chain
  // hashed) before any of them becomes visible to the scheduler. The
  // completion hook never fires for a rejected group — nothing was admitted.
  std::shared_ptr<const GroupCallback> hook;
  if (on_done != nullptr) {
    hook = std::make_shared<const GroupCallback>(std::move(on_done));
  }
  std::vector<Pending> pendings;
  std::vector<ResponseFuture> futures;
  pendings.reserve(requests.size());
  futures.reserve(requests.size());
  for (ScoringRequest& request : requests) {
    auto promise = std::make_shared<std::promise<Result<ScoringResponse>>>();
    futures.push_back(promise->get_future());
    auto pending = MakePending(std::move(request), std::move(promise));
    if (!pending.ok()) {
      return pending.status();
    }
    pending.value().on_done = hook;
    pending.value().on_done_index = pendings.size();
    pendings.push_back(pending.take());
  }
  if (pendings.size() >= 2) {
    int64_t group = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      group = next_group_++;
    }
    for (Pending& pending : pendings) {
      pending.group = group;
    }
  }
  auto ids = AdmitPendings(std::move(pendings));
  if (!ids.ok()) {
    return ids.status();
  }
  std::vector<AsyncSubmission> submissions(ids.value().size());
  for (size_t i = 0; i < submissions.size(); ++i) {
    submissions[i].id = ids.value()[i];
    submissions[i].future = std::move(futures[i]);
  }
  return submissions;
}

Status Engine::Cancel(int64_t id) {
  std::optional<Pending> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if ((taken = TakeWaitingLocked(id))) {
      // Dequeued before any dispatch decision claimed it: it never executes.
      ++stats_.cancelled;
      UpdateShedLocked();
    } else if (running_.count(id) > 0) {
      // Mark-and-ignore: the prefill is already burning; its result is
      // discarded at finalization and the waiter sees kCancelled.
      cancelled_in_flight_.insert(id);
      return Status::Ok();
    } else {
      return Status::NotFound("request " + std::to_string(id) +
                              " is not queued or in flight");
    }
  }
  Fulfill(*taken,
          Result<ScoringResponse>(Status::Cancelled("request cancelled while queued")));
  return Status::Ok();
}

Status Engine::CancelIfQueued(int64_t id) {
  std::optional<Pending> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if ((taken = TakeWaitingLocked(id))) {
      // Still waiting: dequeue it. From here on nothing in this engine can
      // execute it, which is what makes a re-submit elsewhere at-most-once.
      ++stats_.cancelled;
      UpdateShedLocked();
    } else if (running_.count(id) > 0) {
      // Already left the queue — a dispatch decision owns it. Unlike
      // Cancel(), do NOT mark-and-ignore: the caller wants to re-route the
      // request, and a mark here plus a re-submit there would be a second
      // execution path for the same work.
      return Status::FailedPrecondition(
          "request " + std::to_string(id) + " already dispatched; not re-routable");
    } else {
      return Status::NotFound("request " + std::to_string(id) +
                              " is not queued or in flight");
    }
  }
  Fulfill(*taken, Result<ScoringResponse>(Status::Cancelled(
                      "request cancelled while queued (replica failover)")));
  return Status::Ok();
}

Engine::RequestPhase Engine::Phase(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Pending& pending : waiting_) {
    if (pending.id == id) {
      return RequestPhase::kQueued;
    }
  }
  if (running_.count(id) > 0) {
    return RequestPhase::kRunning;
  }
  return RequestPhase::kUnknown;
}

std::vector<Engine::Pending> Engine::TakeExpiredLocked(double now) {
  std::vector<Pending> expired;
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    if (it->deadline_s >= 0.0 && now >= it->deadline_s) {
      expired.push_back(std::move(*it));
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.deadline_expired += static_cast<int64_t>(expired.size());
  return expired;
}

std::vector<Engine::Candidate> Engine::SnapshotQueueLocked() const {
  std::vector<Candidate> candidates;
  candidates.reserve(waiting_.size());
  for (const Pending& p : waiting_) {
    Candidate c;
    c.id = p.id;
    c.arrival_s = p.arrival_s;
    c.n_input = static_cast<int64_t>(p.request.tokens.size());
    c.priority = p.request.priority;
    c.group = p.group;
    c.chain = p.chain;
    candidates.push_back(std::move(c));
  }
  return candidates;
}

Engine::BatchDecision Engine::PickBatchIds(
    const std::vector<Candidate>& candidates) const {
  assert(!candidates.empty());
  std::vector<SchedEntry> entries;
  entries.reserve(candidates.size());
  const bool calibrate = options_.policy == SchedPolicy::kSrjfCalibrated;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (const Candidate& c : candidates) {
      SchedEntry entry;
      entry.arrival_time = c.arrival_s;
      entry.n_input = c.n_input;
      entry.priority = c.priority;
      entry.group = c.group;
      // Continuous JCT calibration: the hit length is refreshed against the
      // live cache on every decision. Offloaded blocks count as cached:
      // their reload is far cheaper than recomputation.
      const int64_t gpu_match = cache_->MatchTokens(*c.chain);
      const int64_t offload_match =
          offload_dir_->PeekContinuation(*c.chain, gpu_match / options_.block_size) *
          options_.block_size;
      const int64_t match = std::min(gpu_match + offload_match, entry.n_input - 1);
      entry.n_cached_at_arrival = match;  // static policies are approximated
      entry.n_cached_now = calibrate ? match : entry.n_cached_at_arrival;
      if (calibrate) {
        // Calibration that sees in-flight work: the first uncached block
        // the request could reuse, while it is still reusable (inside the
        // cache budget and before the always-recomputed final token).
        const int64_t next_block = (gpu_match + offload_match) / options_.block_size;
        const int64_t reusable_blocks =
            std::min({static_cast<int64_t>(c.chain->size()), cache_->capacity_blocks(),
                      (entry.n_input - 1) / options_.block_size});
        if (next_block < reusable_blocks) {
          entry.share_key = (*c.chain)[static_cast<size_t>(next_block)];
          entry.blocked = in_flight_blocks_.count(entry.share_key) > 0;
        }
      }
      entries.push_back(entry);
    }
  }
  // Admission — packing policy, activation budget, cost model — happens
  // inside the scheduler (ISSUE 9): oversized candidates are skipped, not a
  // reason to truncate the tail, and the seed always dispatches. The lane's
  // TrackingAllocator stays the hard guarantee: the projection is asserted
  // conservative by test, but blocks can still be evicted between this
  // decision and AcquirePrefix, and an overshooting stacked pass re-runs
  // its members alone.
  const BatchPick pick = scheduler_.PickBatch(entries, NowSeconds(),
                                             options_.max_batch_size, batch_budget_);
  BatchDecision decision;
  decision.ids.reserve(pick.picked.size());
  for (const size_t index : pick.picked) {
    decision.ids.push_back(candidates[index].id);
  }
  decision.projected_bytes = pick.projected_bytes;
  decision.miss_tokens = pick.miss_tokens;
  decision.budget_skips = pick.budget_skips;
  decision.prefix_waits = pick.prefix_waits;
  return decision;
}

std::optional<Engine::Pending> Engine::TakeWaitingLocked(int64_t id) {
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->id == id) {
      Pending pending = std::move(*it);
      waiting_.erase(it);
      return pending;
    }
  }
  return std::nullopt;
}

Engine::PrefillBatchPending Engine::TakeBatchLocked(const BatchDecision& decision) {
  PrefillBatchPending batch;
  batch.requests.reserve(decision.ids.size());
  for (const int64_t id : decision.ids) {
    if (std::optional<Pending> pending = TakeWaitingLocked(id)) {
      // The id becomes "running" the moment it leaves the queue, under the
      // SAME mu_ hold — a Cancel() landing while the batch rides the
      // exec_queue_ must find it in the running registry (mark-and-ignore),
      // not fall into a blind window where the cancellation is lost. The
      // watchdog clock also starts here: time spent riding the exec queue
      // counts toward a stall.
      MarkRunningLocked(*pending);
      batch.requests.push_back(std::move(*pending));
    }
  }
  if (!batch.requests.empty()) {
    const auto batch_size = static_cast<int64_t>(batch.requests.size());
    ++stats_.batches_dispatched;
    stats_.batched_requests += batch_size;
    stats_.peak_batch_size = std::max(stats_.peak_batch_size, batch_size);
    stats_.batched_miss_tokens += decision.miss_tokens;
    stats_.packing_skips += decision.budget_skips;
    stats_.prefix_waits += decision.prefix_waits;
    // Registered in the same mu_ hold that marks the members running, so
    // the next decision's snapshot already sees these prefixes in flight.
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    const auto capacity = static_cast<size_t>(cache_->capacity_blocks());
    for (const Pending& pending : batch.requests) {
      const size_t budget_blocks = std::min(pending.chain->size(), capacity);
      for (size_t b = 0; b < budget_blocks; ++b) {
        const uint64_t hash = (*pending.chain)[b];
        ++in_flight_blocks_[hash];
        batch.in_flight_hashes.push_back(hash);
      }
    }
  }
  UpdateShedLocked();
  return batch;
}

Engine::PrefillBatchPending Engine::DispatchStep(std::unique_lock<std::mutex>& lock) {
  assert(!waiting_.empty());
  // Deadline enforcement happens at the scheduling decision: lapsed
  // requests are failed with kDeadlineExceeded here, before any prefill is
  // spent on them, and never reach an executor.
  if (std::vector<Pending> expired = TakeExpiredLocked(NowSeconds()); !expired.empty()) {
    UpdateShedLocked();
    lock.unlock();
    for (Pending& pending : expired) {
      Fulfill(pending, Result<ScoringResponse>(
                           Status::DeadlineExceeded("deadline expired while queued")));
    }
    lock.lock();
    return {};
  }
  // The scheduling decision: snapshot the queue, then consult cache +
  // scheduler with mu_ RELEASED, so admission/stats never convoy behind a
  // lane's acquire or publication holding cache_mu_. n_cached_now is refreshed
  // against the live cache at every decision — continuous JCT calibration
  // (§6.3). Requests that arrive between snapshot and relock just wait for
  // the next decision.
  std::vector<Candidate> candidates = SnapshotQueueLocked();
  lock.unlock();
  // A batched decision: the SRJF winner plus riders — the seed's co-batch
  // group-mates first, then budget-packed any-length entries (or the
  // legacy same-bucket tier under kBucket). A pick cancelled between
  // snapshot and relock simply drops out of the batch (TakeWaitingLocked
  // returns nullopt).
  const BatchDecision decision = PickBatchIds(candidates);
  lock.lock();
  return TakeBatchLocked(decision);
}

void Engine::AcquirePrefix(const Pending& pending, PrefixAcq& out) {
  const auto n_tokens = static_cast<int64_t>(pending.request.tokens.size());

  // Suffix KV cache discarding, decided up front: only the prefix that fits
  // the cache budget is ever granted blocks.
  out.budget_blocks = std::min<int64_t>(static_cast<int64_t>(pending.chain->size()),
                                        cache_->capacity_blocks());
  std::span<const uint64_t> chain(*pending.chain);
  out.chain = chain.subspan(0, static_cast<size_t>(out.budget_blocks));

  // --- Cache acquire + prefix view, atomic under cache_mu_ -------------
  // Token-accurate hit-rate accounting: the request presents every token up
  // to the cache budget, including a trailing partial block that can never
  // hit — counting whole chain blocks instead would deflate the denominator
  // and let HitRate() exceed 1.0.
  const int64_t lookup_tokens =
      out.budget_blocks < static_cast<int64_t>(pending.chain->size())
          ? out.budget_blocks * options_.block_size
          : n_tokens;
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  auto acquired = cache_->Acquire(out.chain, out.budget_blocks, lookup_tokens);
  if (!acquired.ok()) {
    // The blocks cannot be reserved: other lanes pin the pool, or an
    // allocation fault was injected. The member runs cold — `out` goes back
    // to empty, so it reads no prefix, retains nothing and publishes
    // nothing. Recomputing a prefix gives the same bits as reusing it.
    out = PrefixAcq();
    return;
  }
  out.acq = acquired.take();

  // Block-aligned prefix reuse; the final token is always recomputed. The
  // GPU-tier match may continue into the offload tier (§9).
  const int64_t gpu_matched = out.acq.matched_blocks;
  const int64_t offload_matched = offload_dir_->MatchContinuation(out.chain, gpu_matched);
  const int64_t max_prefix_blocks = (n_tokens - 1) / options_.block_size;
  out.prefix_blocks = std::min(gpu_matched + offload_matched, max_prefix_blocks);
  out.gpu_prefix_blocks = std::min(gpu_matched, out.prefix_blocks);

  // The pass reads the prefix in place. GPU-tier blocks are pinned, so no
  // lane evicts, demotes or overwrites them before PublishKv; offloaded ones
  // are promoted here, cloned into cache memory (the simulated H2D transfer)
  // under this acquisition's fresh ids, which no other lane can see.
  for (int64_t b = 0; b < out.prefix_blocks; ++b) {
    const BlockId block = out.acq.blocks[static_cast<size_t>(b)];
    if (b >= out.gpu_prefix_blocks) {
      auto payload = offload_payloads_.find(out.chain[static_cast<size_t>(b)]);
      assert(payload != offload_payloads_.end());
      store_->PutBlock(block, CloneBlock(payload->second, cache_memory_));
      offload_hit_tokens_ += options_.block_size;
    }
    const KvBlock* rows = store_->Find(block);
    assert(rows != nullptr);
    out.prefix.Append(rows->layers);
  }
}

void Engine::PublishKv(PrefixAcq& pa, const PrefillResult* pass) {
  // --- Cache release + KV publication, atomic under cache_mu_ ----------
  // Hand the retained fresh prefix blocks to the cache + payload store. A
  // promoted block stays if Release inserts it (its offload copy goes), and
  // is dropped if not: the failure path, or a sibling cached the hash first.
  // A member that ran cold holds no acquisition and releases nothing.
  if (!pa.acq.active) {
    return;
  }
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  std::vector<BlockId> freed(pa.acq.blocks.begin() + pa.gpu_prefix_blocks,
                             pa.acq.blocks.begin() + pa.prefix_blocks);
  const auto inserted = cache_->Release(pa.acq, pass != nullptr ? pa.budget_blocks : 0);
  for (const auto& [block_index, block_id] : inserted) {
    if (block_index < pa.prefix_blocks) {
      const uint64_t hash = pa.chain[static_cast<size_t>(block_index)];
      offload_payloads_.erase(hash);
      offload_dir_->Erase(hash);
      ++offload_promotions_;
      std::erase(freed, block_id);
    } else {
      store_->Put(block_id, pass->kv, pass->kv_start, block_index);
    }
  }
  for (const BlockId block : freed) {
    store_->Drop(block);
  }
}

std::vector<Result<ScoringResponse>> Engine::ExecuteOnArena(
    TrackingAllocator& activations, std::span<Pending> pendings) {
  const size_t n_requests = pendings.size();
  // Every rule below keys on whether this call has a single member. A lone
  // member polls inside its pass and returns its own failures. When the
  // stacked pass of a multi-member call fails, every member re-enters this
  // routine alone once the pass has released its pins and arena bytes — so
  // co-batching never fails a request that would have succeeded alone.
  const bool alone = n_requests == 1;
  const double start_s = NowSeconds();
  std::vector<Result<ScoringResponse>> results(
      n_requests,
      Result<ScoringResponse>(Status::Internal("batch member not executed")));

  std::vector<PrefixAcq> acqs(n_requests);
  std::vector<size_t> live;
  live.reserve(n_requests);
  for (size_t i = 0; i < n_requests; ++i) {
    // Member-boundary abort poll (ISSUE 6): a member whose deadline lapsed
    // (or that was cancelled) while it rode the exec queue is dropped here,
    // before its acquisition pins any blocks.
    if (Status abort = AbortStatus(pendings[i]); !abort.ok()) {
      results[i] = abort;
      continue;
    }
    AcquirePrefix(pendings[i], acqs[i]);
    live.push_back(i);
  }

  if (live.empty()) {
    return results;
  }
  PrefillOptions prefill;
  prefill.mode = options_.mode;
  prefill.chunk_size = options_.chunk_size;
  if (alone) {
    // Cooperative in-flight abort (ISSUE 6): the model polls this between
    // chunks; an expired or cancelled request stops at the next boundary
    // instead of burning its remaining compute. Only a lone member's pass
    // polls, since a non-OK poll would abort every sequence of the pass.
    prefill.abort_check = [this, &pending = pendings[0]] {
      return AbortStatus(pending);
    };
  }

  std::vector<PrefillSequence> sequences;
  sequences.reserve(live.size());
  for (const size_t i : live) {
    PrefillSequence seq;
    seq.tokens = pendings[i].request.tokens;
    seq.cached_prefix = acqs[i].prefix;
    seq.retention = KvRetention::kPrefixBudget;
    seq.prefix_budget_tokens = acqs[i].budget_blocks * options_.block_size;
    sequences.push_back(seq);
  }

  // One stacked prefill for every live member. It runs without any engine
  // lock: the model is immutable, the prefixes are views of blocks this
  // lane has pinned or promoted (no other lane writes or frees them before
  // PublishKv), and each fork-join borrows whichever pool workers are idle.
  auto passes = model_->PrefillBatch(sequences, prefill, activations);
  if (!passes.ok()) {
    // Release every pin before anyone retries.
    for (const size_t i : live) {
      PublishKv(acqs[i], nullptr);
    }
    if (alone) {
      results[live.front()] = passes.status();
      return results;
    }
    // Each member re-enters alone, one at a time, with the lane to itself.
    // Each passes its own member-boundary poll again, so a deadline that
    // lapsed during the stacked pass skips the retry.
    for (const size_t i : live) {
      results[i] = std::move(ExecuteOnArena(activations, pendings.subspan(i, 1)).front());
    }
    return results;
  }
  for (size_t j = 0; j < live.size(); ++j) {
    const size_t i = live[j];
    PrefillResult& pass = passes.value()[j];
    PublishKv(acqs[i], &pass);

    auto probabilities = ConstrainedProbabilities(
        pass.last_logits, pendings[i].request.allowed_tokens);
    if (!probabilities.ok()) {
      results[i] = probabilities.status();
      continue;
    }
    ScoringResponse response;
    response.request_id = pendings[i].id;
    response.user_id = pendings[i].request.user_id;
    response.probabilities = probabilities.take();
    response.score = response.probabilities[0].probability;
    response.n_input = static_cast<int64_t>(pendings[i].request.tokens.size());
    response.n_cached = acqs[i].prefix.n_tokens;
    response.n_cached_offload =
        (acqs[i].prefix_blocks - acqs[i].gpu_prefix_blocks) * options_.block_size;
    response.batch_size = static_cast<int64_t>(live.size());
    response.queue_time_s = start_s - pendings[i].arrival_s;
    response.execute_time_s = NowSeconds() - start_s;
    results[i] = std::move(response);
  }
  return results;
}

std::vector<Result<ScoringResponse>> Engine::ExecuteLaneAndFinalize(
    std::vector<Pending> pendings, std::span<const uint64_t> in_flight_hashes) {
  // Execution never fulfills: delivery happens exactly once, here — or in
  // the watchdog, whichever wins the `fulfilled` exchange.
  const size_t n = pendings.size();
  {
    // The members are already in the running registry: marked where they
    // left the queue (TakeBatchLocked) or were counted (ScoreSync).
    std::lock_guard<std::mutex> lock(mu_);
    ++executing_;
    stats_.peak_in_flight = std::max<int64_t>(stats_.peak_in_flight, executing_);
  }
  const double start_s = NowSeconds();
  // One arena per lane (ISSUE 2): concurrent lanes never share an
  // allocator, so tracking stays exact per lane, and the activation budget
  // bounds a stacked pass the way it bounds a solo one. Every tensor
  // allocated below dies before the arena does.
  TrackingAllocator activations(options_.activation_budget_bytes);
  activations.SetFaultSite(fault::kAllocActivation);
  std::vector<Result<ScoringResponse>> results = ExecuteOnArena(activations, pendings);
  // Every member has published its KV or given up on it, on every path
  // (success, failure, abort, cancel, re-entry alone): its prefixes are no
  // longer in flight. Cleared before the running registry below, so an
  // empty queue and running registry imply an empty prefix registry.
  if (!in_flight_hashes.empty()) {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (const uint64_t hash : in_flight_hashes) {
      auto it = in_flight_blocks_.find(hash);
      assert(it != in_flight_blocks_.end());
      if (--it->second == 0) {
        in_flight_blocks_.erase(it);
      }
    }
  }
  std::vector<bool> ignored(n, false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --executing_;
    stats_.total_execute_s += NowSeconds() - start_s;
    stats_.peak_activation_bytes =
        std::max(stats_.peak_activation_bytes, activations.peak_bytes());
    for (size_t i = 0; i < n; ++i) {
      running_.erase(pendings[i].id);
      // Mark-and-ignore (ISSUE 5): a Cancel() that raced the execution wins
      // — the computed result is discarded, the waiter sees kCancelled.
      // With cooperative abort the prefill may ALSO have stopped early with
      // kCancelled; either way the id is still marked, so this stays the
      // single counting point.
      if (cancelled_in_flight_.erase(pendings[i].id) > 0) {
        ignored[i] = true;
        ++stats_.cancelled_in_flight;
      } else if (results[i].ok()) {
        ++stats_.completed;
      } else if (results[i].status().code() == StatusCode::kDeadlineExceeded) {
        // Cooperative abort between chunks/members (ISSUE 6): its own
        // terminal bucket, disjoint from failed and from the pre-dispatch
        // deadline_expired.
        ++stats_.deadline_expired_in_flight;
      } else {
        ++stats_.failed;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (ignored[i]) {
      results[i] = Result<ScoringResponse>(
          Status::Cancelled("request cancelled while in flight; result discarded"));
    }
    Fulfill(pendings[i], results[i]);
  }
  return results;
}

Result<ScoringResponse> Engine::ScoreSync(ScoringRequest request) {
  // Through MakePending like every other frontend, so the lifecycle options
  // keep their contract here too: an already-expired deadline is rejected
  // before the prefill (a positive one is trivially met — execution starts
  // immediately on the calling thread).
  auto pending = MakePending(std::move(request), nullptr);
  if (!pending.ok()) {
    return pending.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.value().id = next_id_++;
    ++stats_.submitted;
    // Running from the moment it is counted, so the ledger balances at
    // every instant (CheckInvariants).
    MarkRunningLocked(pending.value());
  }
  // An inline lane outside the batch counters and the in-flight registry:
  // no decision could have deferred anything to it.
  std::vector<Pending> lane;
  lane.push_back(pending.take());
  return std::move(ExecuteLaneAndFinalize(std::move(lane), {}).front());
}

Status Engine::StartWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  if (runtime_running_) {
    return Status::FailedPrecondition("concurrent runtime is already running");
  }
  runtime_running_ = true;
  draining_ = false;
  exec_queue_ = std::make_unique<BlockingQueue<PrefillBatchPending>>();
  executors_.clear();
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  for (int i = 0; i < options_.max_concurrent_requests; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  if (options_.watchdog_timeout_ms > 0) {
    watchdog_stop_ = false;
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  return Status::Ok();
}

bool Engine::worker_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runtime_running_;
}

void Engine::StopWorker() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!runtime_running_) {
    return;
  }
  if (draining_) {
    // Another thread is already stopping; wait for it to finish so the
    // post-condition (runtime fully joined) holds for every caller.
    dispatch_cv_.wait(lock, [this] { return !runtime_running_; });
    return;
  }
  draining_ = true;
  lock.unlock();
  dispatch_cv_.notify_all();
  dispatcher_.join();
  for (std::thread& executor : executors_) {
    executor.join();
  }
  lock.lock();
  // The watchdog goes last: with dispatcher and executors joined nothing is
  // in flight anymore, so it can't have work left to deliver.
  watchdog_stop_ = true;
  lock.unlock();
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  lock.lock();
  executors_.clear();
  runtime_running_ = false;
  draining_ = false;
  lock.unlock();
  dispatch_cv_.notify_all();
}

void Engine::DispatcherLoop() {
  const int max_slots = options_.max_concurrent_requests;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    dispatch_cv_.wait(lock, [&] {
      return (draining_ && waiting_.empty() && in_flight_ == 0) ||
             (!waiting_.empty() && in_flight_ < max_slots);
    });
    if (waiting_.empty()) {
      break;  // only the drained predicate wakes on an empty queue
    }
    // After an expiry pass the batch is empty: loop to re-check the slot
    // predicate. Besides this thread only Cancel() removes entries while
    // the runtime runs.
    PrefillBatchPending batch = DispatchStep(lock);
    if (batch.requests.empty()) {
      continue;
    }
    ++in_flight_;
    lock.unlock();
    exec_queue_->Push(std::move(batch));
    lock.lock();
  }
  lock.unlock();
  exec_queue_->Close();
}

void Engine::ExecutorLoop() {
  while (auto item = exec_queue_->Pop()) {
    PrefillBatchPending batch = std::move(*item);
    // Injected lane stall (exec.stall): the dispatched work sits wedged on
    // this executor for stall_ms — what the watchdog exists to detect.
    if (FaultInjector::Global().Fire(fault::kExecStall)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(FaultInjector::Global().stall_ms()));
    }
    ExecuteLaneAndFinalize(std::move(batch.requests), batch.in_flight_hashes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    dispatch_cv_.notify_all();
  }
}

void Engine::WatchdogLoop() {
  const double timeout_s = static_cast<double>(options_.watchdog_timeout_ms) / 1e3;
  const auto poll = std::chrono::milliseconds(
      std::max<int64_t>(options_.watchdog_timeout_ms / 4, 1));
  std::unique_lock<std::mutex> lock(mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, poll);
    if (watchdog_stop_) {
      break;
    }
    const double now = NowSeconds();
    std::vector<std::pair<RunningEntry, int64_t>> stuck;
    for (auto& [id, entry] : running_) {
      if (entry.watchdog_fired || entry.promise == nullptr ||
          now - entry.started_s < timeout_s) {
        continue;
      }
      // Fail the waiter, not the work: the lane keeps running (there is no
      // safe way to preempt it) and its eventual result counts in the
      // terminal stats as usual — only the delivery is taken over here, so
      // the client gets a structured error instead of a hang.
      entry.watchdog_fired = true;
      ++stats_.watchdog_stalls;
      watchdog_ever_fired_ = true;
      stuck.emplace_back(entry, id);
    }
    if (stuck.empty()) {
      continue;
    }
    lock.unlock();
    for (auto& [entry, id] : stuck) {
      Fulfill(entry.promise, entry.fulfilled, entry.on_done, entry.on_done_index,
              Result<ScoringResponse>(Status::Internal(
                  "watchdog: request " + std::to_string(id) +
                  " stuck in an executor for over " +
                  std::to_string(options_.watchdog_timeout_ms) + " ms")));
    }
    lock.lock();
  }
}

Engine::HealthStatus Engine::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (shedding_) {
    return HealthStatus::kOverloaded;
  }
  if (watchdog_ever_fired_) {
    return HealthStatus::kDegraded;
  }
  return HealthStatus::kOk;
}

Status Engine::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t terminal = stats_.completed + stats_.failed + stats_.cancelled +
                           stats_.cancelled_in_flight + stats_.deadline_expired +
                           stats_.deadline_expired_in_flight;
  const auto queued = static_cast<int64_t>(waiting_.size());
  const auto running = static_cast<int64_t>(running_.size());
  if (stats_.submitted != terminal + queued + running) {
    return Status::Internal(
        "ledger out of balance: submitted " + std::to_string(stats_.submitted) +
        " != terminal " + std::to_string(terminal) + " + queued " +
        std::to_string(queued) + " + running " + std::to_string(running));
  }
  if (queued > 0 || running > 0) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  const auto idle_error = [](const std::string& what, size_t n, int64_t want) {
    return Status::Internal(what + " " + std::to_string(n) + " with nothing queued or " +
                            "running, want " + std::to_string(want));
  };
  const int64_t cached = cache_->cached_blocks();
  if (!in_flight_blocks_.empty()) {
    return idle_error("in-flight prefix hashes:", in_flight_blocks_.size(), 0);
  }
  if (static_cast<int64_t>(store_->block_count()) != cached) {
    return idle_error("block store payloads:", store_->block_count(), cached);
  }
  if (cache_->free_blocks() + cached != cache_->capacity_blocks()) {
    return idle_error("free + cached pool blocks:",
                      static_cast<size_t>(cache_->free_blocks() + cached),
                      cache_->capacity_blocks());
  }
  if (static_cast<int64_t>(offload_payloads_.size()) != offload_dir_->size()) {
    return idle_error("offload payloads:", offload_payloads_.size(), offload_dir_->size());
  }
  return cache_->CheckIdle();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats out = stats_;
  out.faults_injected = FaultInjector::Global().total_fires();
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  out.cache_bytes = cache_memory_.current_bytes();
  out.cache = cache_->stats();
  out.offload_bytes = offload_memory_.current_bytes();
  out.offload_hit_tokens = offload_hit_tokens_;
  out.offload_demotions = offload_demotions_;
  out.offload_promotions = offload_promotions_;
  out.offload_evictions = offload_dir_->evictions();
  out.offload_read_hits = offload_dir_->read_hits();
  out.offload_read_misses = offload_dir_->read_misses();
  return out;
}

}  // namespace prefillonly
