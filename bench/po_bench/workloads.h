// po_bench workloads and the one deployment they all run against.
//
// Every workload is a traffic mix generated from a seed; the engine only
// ever sees the generated requests. A run draws fresh requests for each of
// its phases (warm-up, saturation, each grid point), so no request is sent
// twice in a run — except that rec users share their profile prefixes, by
// design: that sharing is what the cache layers exist for.
#ifndef BENCH_PO_BENCH_WORKLOADS_H_
#define BENCH_PO_BENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/replica_set.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/server/scoring_service.h"

namespace po_bench {

// Deployment shape (identical for every workload).
inline constexpr int kReplicas = 2;
inline constexpr int kLanesPerReplica = 2;
inline constexpr int kHttpConnections = 4;
inline const std::vector<int32_t> kAllowed = {7, 9};

prefillonly::EngineOptions DeploymentEngineOptions();
// Canonical one-line description, recorded in results and hashed into the
// configuration hash.
std::string DeploymentDescription();

enum class Transport { kInProcess, kHttp };

struct Workload {
  std::string name;
  Transport transport;
};

// The three permanent workloads, in run order.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The generator parameters of a workload, for the configuration hash.
std::string WorkloadDescription(const Workload& workload);

struct Item {
  std::vector<int32_t> tokens;
  int64_t user_id = 0;
};

// One phase's requests and their send offsets (seconds from phase start,
// nondecreasing). Items are index-aligned with the schedule.
struct PhaseInput {
  std::vector<Item> items;
  std::vector<double> schedule;
};

// `n` fresh requests for phase number `phase` of a run seeded with `seed`.
// rate > 0 draws the workload's arrival process at that aggregate rate
// (user bursts for rec_burst, Poisson otherwise); rate <= 0 offers every
// request at t = 0 (the saturation set).
PhaseInput MakePhase(const Workload& workload, uint64_t seed, int phase, size_t n,
                     double rate);

// How a run of `seconds` splits its time. A measured run offers a warm-up
// (a saturation set and a lo point of warmup_s each) and then `rounds`
// rounds; each round offers a saturation set sized to take about window_s
// at C_ref, then every grid point for window_s. Per-point metrics are
// medians over rounds, so a slow stretch of the host hits one round rather
// than one whole metric. A traced run offers two points of traced_s at the
// hi rate, the first untraced. --smoke shrinks a run to one round with
// only the lo point.
struct PhasePlan {
  double warmup_s = 0.0;
  int rounds = 0;
  double window_s = 0.0;
  double traced_s = 0.0;
  size_t gate_samples = 64;
  size_t setup_repeats = 5;  // timed per batch; a measured run builds two batches
};
PhasePlan MakePlan(double seconds, bool smoke);

// One constructed deployment: a ReplicaSet in process, or a ScoringService
// over one (serving HTTP on an ephemeral loopback port).
class Deployment {
 public:
  static prefillonly::Result<std::unique_ptr<Deployment>> Create(Transport transport);

  prefillonly::ReplicaSet& set() { return *set_; }
  bool http() const { return service_ != nullptr; }
  uint16_t port() const { return service_ ? service_->port() : 0; }

 private:
  Deployment() = default;

  std::unique_ptr<prefillonly::ScoringService> service_;
  std::unique_ptr<prefillonly::ReplicaSet> owned_set_;
  prefillonly::ReplicaSet* set_ = nullptr;
};

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_WORKLOADS_H_
