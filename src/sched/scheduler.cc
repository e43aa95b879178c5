#include "src/sched/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <tuple>

namespace prefillonly {

int64_t LengthBucket(int64_t n_miss_tokens) {
  const uint64_t len = static_cast<uint64_t>(std::max<int64_t>(n_miss_tokens, 1));
  return static_cast<int64_t>(std::bit_width(len)) - 1;
}

std::string_view SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "FIFO";
    case SchedPolicy::kSjfStatic:
      return "SRJF (static)";
    case SchedPolicy::kSrjfCalibrated:
      return "SRJF + continuous JCT calibration";
  }
  return "?";
}

std::string_view BatchPackingName(BatchPacking packing) {
  switch (packing) {
    case BatchPacking::kFirstFit:
      return "first-fit decreasing";
    case BatchPacking::kBucket:
      return "length bucket";
  }
  return "?";
}

int64_t BatchBudget::CachedTokens(int64_t n_input, int64_t n_cached_now) const {
  int64_t cached =
      std::clamp<int64_t>(n_cached_now, 0, std::max<int64_t>(n_input - 1, 0));
  if (block_tokens > 0) {
    cached -= cached % block_tokens;
  }
  return cached;
}

int64_t BatchBudget::MissTokens(int64_t n_input, int64_t n_cached_now) const {
  // Even a fully-cached request stacks at least one row (the engine clamps
  // reuse to n_input - 1 so the final token is always recomputed).
  return std::max<int64_t>(n_input - CachedTokens(n_input, n_cached_now), 1);
}

size_t BatchBudget::SequenceBytes(int64_t n_input, int64_t n_cached_now) const {
  const int64_t cached = CachedTokens(n_input, n_cached_now);
  const int64_t miss = MissTokens(n_input, n_cached_now);
  return static_cast<size_t>(miss) * bytes_per_miss_token +
         static_cast<size_t>(cached) * bytes_per_cached_token +
         bytes_per_sequence;
}

Scheduler::Scheduler(SchedPolicy policy, double lambda,
                     const JctEstimator* estimator, BatchPacking packing)
    : policy_(policy), lambda_(lambda), estimator_(estimator), packing_(packing) {
  assert(policy == SchedPolicy::kFifo || estimator != nullptr);
}

double Scheduler::Score(const SchedEntry& entry, double now) const {
  switch (policy_) {
    case SchedPolicy::kFifo:
      return entry.arrival_time;
    case SchedPolicy::kSjfStatic:
      return estimator_->Estimate(entry.n_input, entry.n_cached_at_arrival) -
             lambda_ * (now - entry.arrival_time);
    case SchedPolicy::kSrjfCalibrated:
      // Algorithm 1, line 9: score = jct(n_input, n_cached) - lambda * T_queue.
      return estimator_->Estimate(entry.n_input, entry.n_cached_now) -
             lambda_ * (now - entry.arrival_time);
  }
  return 0.0;
}

BatchPick Scheduler::PickBatch(std::span<const SchedEntry> queue, double now,
                               int max_batch, const BatchBudget& budget) const {
  assert(!queue.empty());
  BatchPick pick;
  const size_t seed = PickNext(queue, now);
  // The seed is always admitted — running it solo would charge the lane the
  // same bytes, so rejecting it on budget grounds could only stall the queue.
  pick.picked.push_back(seed);
  pick.projected_bytes =
      budget.SequenceBytes(queue[seed].n_input, queue[seed].n_cached_now);
  pick.miss_tokens =
      budget.MissTokens(queue[seed].n_input, queue[seed].n_cached_now);
  if (max_batch <= 1 || queue.size() <= 1) {
    return pick;
  }
  const auto miss = [](const SchedEntry& e) { return e.n_input - e.n_cached_now; };
  const int64_t seed_bucket = LengthBucket(miss(queue[seed]));
  const int64_t seed_group = queue[seed].group;
  // Rider tiers: the seed's co-batch group-mates ride first (ISSUE 5),
  // exempt from any length rule — their caller submitted them as one
  // multi-item decision, so co-scheduling them is the deliberate outcome
  // the API promises. The rest depends on the packing mode: kFirstFit
  // considers EVERY other entry, warm before cold — a resident prefix is
  // reused before LRU can evict it — and longest remaining length first
  // within each (first-fit decreasing packs tightest when big items go in
  // early); kBucket keeps the legacy same-LengthBucket gate in score
  // order. Every tier still charges the budget and obeys the prefix rule.
  std::vector<std::pair<double, size_t>> mates;
  std::vector<std::pair<double, size_t>> warm;
  std::vector<std::pair<double, size_t>> rest;
  for (size_t i = 0; i < queue.size(); ++i) {
    if (i == seed) {
      continue;
    }
    if (seed_group != 0 && queue[i].group == seed_group) {
      mates.emplace_back(Score(queue[i], now), i);
    } else if (packing_ == BatchPacking::kFirstFit) {
      const bool is_warm =
          budget.CachedTokens(queue[i].n_input, queue[i].n_cached_now) > 0;
      (is_warm ? warm : rest).emplace_back(-static_cast<double>(miss(queue[i])), i);
    } else if (LengthBucket(miss(queue[i])) == seed_bucket) {
      rest.emplace_back(Score(queue[i], now), i);
    }
  }
  // stable_sort keeps ties FIFO (queues are arrival-ordered); the priority
  // class dominates the sort key, mirroring PickNext. For kFirstFit the key
  // is the negated miss length, so within a class longer candidates sort
  // first — starvation is unaffected because classes still dominate and the
  // seed choice already happened.
  const auto by_class_then_key = [&queue](const auto& a, const auto& b) {
    if (queue[a.second].priority != queue[b.second].priority) {
      return queue[a.second].priority > queue[b.second].priority;
    }
    return a.first < b.first;
  };
  std::stable_sort(mates.begin(), mates.end(), by_class_then_key);
  std::stable_sort(warm.begin(), warm.end(), by_class_then_key);
  std::stable_sort(rest.begin(), rest.end(), by_class_then_key);
  // Uncached prefixes the admitted members will compute; a batch holds at
  // most max_batch keys, so a linear scan beats hashing.
  std::vector<uint64_t> keys;
  if (queue[seed].share_key != 0) {
    keys.push_back(queue[seed].share_key);
  }
  const bool limited = budget.budget_bytes > 0;
  for (const auto* tier : {&mates, &warm, &rest}) {
    for (const auto& [key, index] : *tier) {
      if (pick.picked.size() >= static_cast<size_t>(max_batch)) {
        return pick;
      }
      const SchedEntry& entry = queue[index];
      if (entry.blocked || (entry.share_key != 0 &&
                            std::find(keys.begin(), keys.end(), entry.share_key) !=
                                keys.end())) {
        // The prefix rule: computing this prefix a second time at once is
        // pure waste. The rider waits and runs warm after publication.
        ++pick.prefix_waits;
        continue;
      }
      const size_t cost = budget.SequenceBytes(entry.n_input, entry.n_cached_now);
      if (limited && pick.projected_bytes + cost > budget.budget_bytes) {
        // Skip, don't break (the ISSUE 9 bugfix): an oversized candidate
        // stays queued for a later decision while smaller ones still ride.
        ++pick.budget_skips;
        continue;
      }
      pick.projected_bytes += cost;
      pick.miss_tokens += budget.MissTokens(entry.n_input, entry.n_cached_now);
      pick.picked.push_back(index);
      if (entry.share_key != 0) {
        keys.push_back(entry.share_key);
      }
    }
  }
  return pick;
}

std::vector<size_t> Scheduler::PickBatch(std::span<const SchedEntry> queue,
                                         double now, int max_batch) const {
  return PickBatch(queue, now, max_batch, BatchBudget{}).picked;
}

size_t Scheduler::PickNext(std::span<const SchedEntry> queue, double now) const {
  assert(!queue.empty());
  // Lexicographic key, lower wins: the priority class is strict (ISSUE 5),
  // then a runnable entry beats one blocked on an in-flight prefix, and the
  // policy score decides the rest. The strict comparison keeps ties FIFO
  // by queue order (queues are arrival-ordered).
  const auto key = [&](const SchedEntry& e) {
    return std::make_tuple(-static_cast<int64_t>(e.priority), e.blocked, Score(e, now));
  };
  size_t best = 0;
  auto best_key = key(queue[0]);
  for (size_t i = 1; i < queue.size(); ++i) {
    if (auto k = key(queue[i]); k < best_key) {
      best_key = k;
      best = i;
    }
  }
  return best;
}

}  // namespace prefillonly
