// Persistent worker pool with deterministic range partitioning and elastic
// per-call worker borrowing (ISSUE 2).
//
// The engine's intra-op parallelism contract: ParallelFor splits [0, n) into
// CONTIGUOUS ranges with a fixed arithmetic rule, and each range is executed
// by exactly one thread. Because every kernel built on top of it computes
// each output element with a code path that depends only on the element's own
// coordinates (never on the range boundaries), results are bitwise identical
// for every thread count AND for every worker-subset width — including
// num_threads == 1, which runs the body inline on the caller with no pool
// machinery at all. tests/kernel_parity_test.cc, tests/model_test.cc and
// tests/concurrency_test.cc assert this property.
//
// Concurrency model (docs/CONCURRENCY.md): each spawned worker has its own
// task mailbox, so SEVERAL client threads may issue ParallelFor and Fork
// calls at the same time. Each call borrows however many workers are idle
// when it forks (each worker serves one call at a time) and returns them to
// the shared free set when it joins, so a lone request expands to the whole
// machine while concurrent requests split whatever is idle between them.
// One pool may serve several engines (a ReplicaSet shares one).
//
// Every call that hands work to a spawned worker is one fork-join:
// waking the helper and joining it costs about 12 us, as much as a small
// GEMM. Callers on a hot path therefore fork over coarse regions, not per
// kernel call: a prefill pass runs each layer's row-local chain of kernels
// as one row-parallel region whose kernels run serially on each thread's
// slice of the rows (src/model/llama.h). fork_joins() counts the dispatches.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace prefillonly {

class ThreadPool {
 public:
  // The body of a parallel loop: called as fn(begin, end, worker) with
  // 0 <= worker < num_threads(); worker 0 is always the calling thread.
  // Distinct calls receive disjoint [begin, end) ranges.
  using RangeFn = std::function<void(int64_t begin, int64_t end, int worker)>;
  // The body of a fork: called as fn(shard, shards) once for each shard in
  // [0, shards); shard 0 is the calling thread.
  using ShardFn = std::function<void(int shard, int shards)>;

  // num_threads <= 0 resolves to std::thread::hardware_concurrency().
  // num_threads == 1 spawns no workers: every ParallelFor runs inline,
  // which is exactly the legacy single-threaded execution.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn over a deterministic partition of [0, n). `grain` is the minimum
  // number of iterations worth shipping to a thread: fewer than 2*grain total
  // iterations run inline on the caller. The partition rule (ShardRange) does
  // not affect results for kernels that are element-owned, so the grain —
  // like the number of workers that happen to be available — is a pure
  // performance knob.
  void ParallelFor(int64_t n, int64_t grain, const RangeFn& fn);

  // The primitive under ParallelFor: runs fn on the calling thread plus
  // however many workers are idle, up to max_shards - 1 of them. Every
  // shard of one fork sees the same `shards`, the number of threads the
  // call actually got, so a caller that splits its work by `shards` stays
  // balanced however many workers the pool could lend (a caller that split
  // by num_threads() would leave its caller thread the remainder).
  void Fork(int max_shards, const ShardFn& fn);

  // Fork-joins dispatched so far: ParallelFor and Fork calls that handed a
  // shard to at least one spawned worker. Calls that ran inline on the
  // caller do not count. Relaxed and monotonic; tests read it to pin how
  // often a prefill pass forks (tests/batching_test.cc).
  uint64_t fork_joins() const { return fork_joins_.load(std::memory_order_relaxed); }

  // The range worker `shard` of `shards` owns: floor-balanced contiguous
  // blocks, first `n % shards` blocks one element larger.
  static std::pair<int64_t, int64_t> ShardRange(int64_t n, int shards, int shard);

 private:
  // Rendezvous for one ParallelFor call; lives on the issuing thread's stack.
  struct Latch {
    int pending = 0;
  };
  // Per-spawned-worker task mailbox, guarded by mu_. `latch != nullptr`
  // means the worker is running (or about to run) a shard; a worker is never
  // handed a task while busy — the free set guarantees each worker has at
  // most one issuer at a time. Each worker sleeps on its own condition
  // variable so an assignment wakes exactly the assigned workers, not the
  // whole pool (no thundering herd per kernel launch).
  struct Slot {
    std::condition_variable cv;
    const ShardFn* fn = nullptr;
    int shards = 0;
    int shard = 0;
    Latch* latch = nullptr;
    uint64_t epoch = 0;  // bumped on every assignment; workers wait on it
  };

  void WorkerLoop(int worker);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_done_;
  std::unique_ptr<Slot[]> slots_;  // one per spawned worker
  std::vector<int> free_workers_;  // spawned workers not serving a call
  bool stop_ = false;
  std::atomic<uint64_t> fork_joins_{0};
};

}  // namespace prefillonly

#endif  // SRC_COMMON_THREAD_POOL_H_
