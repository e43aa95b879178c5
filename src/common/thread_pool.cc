#include "src/common/thread_pool.h"

#include <algorithm>
#include <cassert>

namespace prefillonly {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(num_threads, 1);
  const int spawned = num_threads_ - 1;
  slots_ = std::make_unique<Slot[]>(static_cast<size_t>(spawned));
  free_workers_.reserve(static_cast<size_t>(spawned));
  for (int w = 0; w < spawned; ++w) {
    free_workers_.push_back(w);
  }
  workers_.reserve(static_cast<size_t>(spawned));
  for (int w = 0; w < spawned; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  for (int w = 0; w < num_threads_ - 1; ++w) {
    slots_[w].cv.notify_one();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::pair<int64_t, int64_t> ThreadPool::ShardRange(int64_t n, int shards, int shard) {
  assert(shards > 0 && shard >= 0 && shard < shards);
  const int64_t base = n / shards;
  const int64_t rem = n % shards;
  const int64_t begin = shard * base + std::min<int64_t>(shard, rem);
  const int64_t end = begin + base + (shard < rem ? 1 : 0);
  return {begin, end};
}

void ThreadPool::ParallelFor(int64_t n, int64_t grain, const RangeFn& fn) {
  if (n <= 0) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int max_shards = static_cast<int>(
      std::clamp<int64_t>(n / grain, 1, static_cast<int64_t>(num_threads_)));
  if (max_shards == 1 || workers_.empty()) {
    fn(0, n, 0);
    return;
  }
  // The actual shard count never changes results — kernels are
  // element-owned — only wall time.
  Fork(max_shards, [&](int shard, int shards) {
    const auto [begin, end] = ShardRange(n, shards, shard);
    fn(begin, end, shard);
  });
}

void ThreadPool::Fork(int max_shards, const ShardFn& fn) {
  // Helpers for this call: whatever is idle right now, up to
  // max_shards - 1.
  Latch latch;
  const int max_helpers = std::min(max_shards, num_threads_) - 1;
  std::vector<int> helpers;
  helpers.reserve(static_cast<size_t>(std::max(max_helpers, 0)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(helpers.size()) < max_helpers && !free_workers_.empty()) {
      helpers.push_back(free_workers_.back());
      free_workers_.pop_back();
    }
    const int n_helpers = static_cast<int>(helpers.size());
    latch.pending = n_helpers;
    for (int i = 0; i < n_helpers; ++i) {
      Slot& slot = slots_[helpers[static_cast<size_t>(i)]];
      assert(slot.latch == nullptr && "worker handed a task while busy");
      slot.fn = &fn;
      slot.shards = n_helpers + 1;
      slot.shard = i + 1;
      slot.latch = &latch;
      ++slot.epoch;
    }
  }
  const int n_helpers = static_cast<int>(helpers.size());
  if (n_helpers == 0) {
    fn(0, 1);
    return;
  }
  fork_joins_.fetch_add(1, std::memory_order_relaxed);
  // Wake exactly the assigned workers — each sleeps on its own cv.
  for (int i = 0; i < n_helpers; ++i) {
    slots_[helpers[static_cast<size_t>(i)]].cv.notify_one();
  }
  // The caller is always shard 0 of its own call.
  fn(0, n_helpers + 1);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&latch] { return latch.pending == 0; });
  free_workers_.insert(free_workers_.end(), helpers.begin(), helpers.end());
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  Slot& slot = slots_[worker];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    slot.cv.wait(lock, [&] { return stop_ || slot.epoch != seen; });
    if (stop_) {
      return;
    }
    seen = slot.epoch;
    const ShardFn* fn = slot.fn;
    const int shards = slot.shards;
    const int shard = slot.shard;
    Latch* latch = slot.latch;
    lock.unlock();
    (*fn)(shard, shards);
    lock.lock();
    slot.fn = nullptr;
    slot.latch = nullptr;
    if (--latch->pending == 0) {
      cv_done_.notify_all();
    }
  }
}

}  // namespace prefillonly
