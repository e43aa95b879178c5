// Deterministic fault injection.
//
// Production serving stacks are judged on how they degrade, not on their
// happy path — but failures (allocation exhaustion, I/O errors, wedged
// executors) are rare and nondeterministic in the wild, so nothing exercises
// the recovery code. This module makes failure a *reproducible input*: the
// runtime is instrumented with named injection sites, and a seeded schedule
// decides, purely as a function of (seed, site, hit index), which hits fire.
// Replaying the same schedule replays the exact same fault sequence, so chaos
// tests can assert invariants (no lost completion, balanced accounting)
// instead of merely hoping.
//
// Activation: injection is OFF by default and the instrumented fast path is a
// single relaxed atomic load, so the default build is bit-identical. A
// schedule is installed either via EngineOptions::fault_schedule, the
// PREFILLONLY_FAULT_SCHEDULE environment variable (read once, at first use),
// or a FaultScope in tests. The injector is process-global — one schedule at
// a time — mirroring how a real fault (a failing disk, a flaky NIC) is a
// property of the process's environment, not of one engine instance.
//
// Schedule grammar (semicolon-separated clauses):
//
//   seed=<u64>            RNG seed shared by all probabilistic triggers
//   stall_ms=<ms>         duration used by the exec.stall site
//   <site>=<trigger>;...  which hits of `site` fire:
//       p<float>   each hit fires with probability p (seeded Bernoulli)
//       n<k>       every k-th hit fires (k >= 1)
//       @i,j,...   exactly the listed 1-based hit indices fire
//       x<k>       the first k hits fire
//
//   e.g.  "seed=7;alloc.kv_block=p0.25;offload.read=@1,3;exec.stall=x1;stall_ms=300"
//
// Site catalog (see docs/ROBUSTNESS.md for what each failure means):
//   alloc.activation   TrackingAllocator::Allocate returns nullptr (arena OOM)
//   alloc.kv_block     BlockAllocator::Allocate returns kResourceExhausted
//   cache.force_miss   PrefixCache::Acquire matches zero blocks
//   offload.read       OffloadDirectory::MatchContinuation reads nothing
//   offload.write      demotion to the offload tier is dropped (write error)
//   socket.recv        HttpServer read() observes a transient EINTR
//   socket.send        HttpServer send() fails mid-response (connection lost)
//   socket.short_write HttpServer send() accepts only a few bytes per call
//   net.accept         HttpServer accept() fails as if the process were out of fds
//   exec.stall         an executor lane sleeps stall_ms before prefilling
//   replica.submit     ReplicaSet hand-off to a replica fails (transport lost)
//   replica.health     a replica's health probe fails (monitor strike)
//   replica.stall      the router sleeps stall_ms before handing a request off
#ifndef SRC_COMMON_FAULT_H_
#define SRC_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace prefillonly {

namespace fault {
inline constexpr char kAllocActivation[] = "alloc.activation";
inline constexpr char kAllocKvBlock[] = "alloc.kv_block";
inline constexpr char kCacheForceMiss[] = "cache.force_miss";
inline constexpr char kOffloadRead[] = "offload.read";
inline constexpr char kOffloadWrite[] = "offload.write";
inline constexpr char kSocketRecv[] = "socket.recv";
inline constexpr char kSocketSend[] = "socket.send";
inline constexpr char kSocketShortWrite[] = "socket.short_write";
inline constexpr char kNetAccept[] = "net.accept";
inline constexpr char kExecStall[] = "exec.stall";
inline constexpr char kReplicaSubmit[] = "replica.submit";
inline constexpr char kReplicaHealth[] = "replica.health";
inline constexpr char kReplicaStall[] = "replica.stall";
}  // namespace fault

struct FaultSiteStats {
  int64_t hits = 0;   // times the site was reached with injection enabled
  int64_t fires = 0;  // times the site actually failed
};

class FaultInjector {
 public:
  static FaultInjector& Global();

  // Installs a schedule (replacing any current one). An empty spec disables
  // injection. Returns kInvalidArgument on a malformed spec, leaving the
  // injector disabled.
  Status LoadSchedule(const std::string& spec);
  void Clear();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Counts a hit at `site` and returns true if the schedule fires the fault.
  // Hot-path cost when disabled: one relaxed atomic load, no lock.
  bool Fire(const char* site);

  // Duration knob for exec.stall (0 unless the schedule sets stall_ms).
  int stall_ms() const;

  // Per-site counters since the last LoadSchedule/Clear. Sites never reached
  // are absent; sites present in the schedule start at zero.
  std::map<std::string, FaultSiteStats> SiteStats() const;
  int64_t total_fires() const { return total_fires_.load(std::memory_order_relaxed); }

 private:
  enum class TriggerKind { kProbability, kEveryNth, kIndices, kFirstN };

  struct Trigger {
    TriggerKind kind;
    double probability = 0.0;        // kProbability
    uint64_t n = 0;                  // kEveryNth / kFirstN
    std::vector<uint64_t> indices;   // kIndices (sorted, 1-based)
    uint64_t rng_state = 0;          // per-site seeded stream (kProbability)
    FaultSiteStats stats;
  };

  FaultInjector();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> total_fires_{0};
  mutable std::mutex mu_;
  std::map<std::string, Trigger> sites_;
  int stall_ms_ = 0;
};

// RAII schedule installation for tests: installs on construction, clears on
// destruction. Aborts the test (CHECK-style) if the spec is malformed so a
// typo'd schedule cannot silently run a no-fault "chaos" test.
class FaultScope {
 public:
  explicit FaultScope(const std::string& spec);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

}  // namespace prefillonly

#endif  // SRC_COMMON_FAULT_H_
