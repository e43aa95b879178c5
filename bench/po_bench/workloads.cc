#include "bench/po_bench/workloads.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/rng.h"
#include "src/loadgen/arrival.h"
#include "src/workload/dataset.h"

namespace po_bench {

using namespace prefillonly;

namespace {

// Rec users issue this many candidate posts each. With 110-170-token
// profiles in 32-token blocks, all but the first post of a user reuse the
// profile's full blocks, so about 3/4 of all tokens can hit the cache.
constexpr int kPostsPerUser = 8;
// Share of credit items in mixed_http.
constexpr double kMixedCreditShare = 0.15;

uint64_t PhaseSeed(uint64_t seed, int phase, uint64_t stream) {
  uint64_t state = seed ^ (static_cast<uint64_t>(phase) << 32) ^ (stream << 56);
  return SplitMix64(state);
}

std::vector<Item> RecItems(size_t n, uint64_t seed, Dataset* dataset_out) {
  if (n == 0) {  // the dataset generators require at least one user
    return {};
  }
  PostRecommendationConfig config = ScaledPostRecommendationConfig(seed);
  config.posts_per_user = kPostsPerUser;
  config.n_users = static_cast<int>((n + kPostsPerUser - 1) / kPostsPerUser);
  Dataset dataset = MakePostRecommendationDataset(config);
  dataset.requests.resize(n);
  std::vector<Item> items;
  items.reserve(n);
  for (SimRequest& request : dataset.requests) {
    items.push_back({std::move(request.tokens), request.user_id});
  }
  if (dataset_out != nullptr) {
    *dataset_out = std::move(dataset);
  }
  return items;
}

std::vector<Item> CreditItems(size_t n, uint64_t seed) {
  if (n == 0) {
    return {};
  }
  CreditVerificationConfig config = ScaledCreditVerificationConfig(seed);
  config.n_users = static_cast<int>(n);
  Dataset dataset = MakeCreditVerificationDataset(config);
  std::vector<Item> items;
  items.reserve(n);
  for (SimRequest& request : dataset.requests) {
    items.push_back({std::move(request.tokens), request.user_id});
  }
  return items;
}

std::vector<double> PoissonOrZero(size_t n, double rate, uint64_t seed) {
  if (rate <= 0.0) {
    return std::vector<double>(n, 0.0);
  }
  return MakeArrivalSchedule(n, {ArrivalKind::kPoisson, rate, seed});
}

PhaseInput RecPhase(size_t n, double rate, uint64_t seed) {
  PhaseInput out;
  if (rate <= 0.0) {
    out.items = RecItems(n, seed, nullptr);
    out.schedule.assign(out.items.size(), 0.0);
    return out;
  }
  Dataset dataset;
  std::vector<Item> items = RecItems(n, seed, &dataset);
  AssignUserBurstArrivals(dataset, rate, PhaseSeed(seed, 0, 1));
  // User sessions interleave, so arrival order differs from generation
  // order: sort items by their own arrival time.
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return dataset.requests[a].arrival_time < dataset.requests[b].arrival_time;
  });
  const double t0 = order.empty() ? 0.0 : dataset.requests[order[0]].arrival_time;
  for (size_t index : order) {
    out.items.push_back(std::move(items[index]));
    out.schedule.push_back(dataset.requests[index].arrival_time - t0);
  }
  return out;
}

PhaseInput MixedPhase(size_t n, double rate, uint64_t seed) {
  Rng pick(PhaseSeed(seed, 0, 2));
  std::vector<bool> is_credit(n);
  size_t n_credit = 0;
  for (size_t i = 0; i < n; ++i) {
    is_credit[i] = pick.NextDouble() < kMixedCreditShare;
    n_credit += is_credit[i] ? 1 : 0;
  }
  std::vector<Item> rec = RecItems(n - n_credit, seed, nullptr);
  std::vector<Item> credit = CreditItems(n_credit, PhaseSeed(seed, 0, 3));
  PhaseInput out;
  out.items.reserve(n);
  size_t next_rec = 0;
  size_t next_credit = 0;
  for (size_t i = 0; i < n; ++i) {
    out.items.push_back(is_credit[i] ? std::move(credit[next_credit++])
                                     : std::move(rec[next_rec++]));
  }
  out.schedule = PoissonOrZero(n, rate, PhaseSeed(seed, 0, 4));
  return out;
}

}  // namespace

EngineOptions DeploymentEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Small();
  options.mode = PrefillMode::kHybrid;
  options.chunk_size = 64;
  options.block_size = 32;
  options.cache_budget_tokens = 4096;
  options.num_threads = 2;
  options.max_concurrent_requests = kLanesPerReplica;
  options.max_batch_size = 4;
  options.policy = SchedPolicy::kSrjfCalibrated;
  options.kernel_backend = KernelBackend::kAuto;
  return options;
}

std::string DeploymentDescription() {
  return "model=small mode=hybrid chunk=64 block=32 cache_tokens=4096 replicas=" +
         std::to_string(kReplicas) + " threads=2 lanes=" +
         std::to_string(kLanesPerReplica) +
         " max_batch=4 policy=srjf_calibrated backend=auto http_connections=" +
         std::to_string(kHttpConnections);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"rec_burst", Transport::kInProcess},
      {"credit_long", Transport::kInProcess},
      {"mixed_http", Transport::kHttp},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

std::string WorkloadDescription(const Workload& workload) {
  const std::string rec = "rec(posts_per_user=" + std::to_string(kPostsPerUser) +
                          " profile=110..170 post=8 vocab=256 arrivals=user_burst)";
  const std::string credit = "credit(tokens=400..600 vocab=256 arrivals=poisson)";
  if (workload.name == "rec_burst") {
    return rec;
  }
  if (workload.name == "credit_long") {
    return credit;
  }
  return "mix(credit_share=0.15 " + rec + " " + credit + " arrivals=poisson)";
}

PhaseInput MakePhase(const Workload& workload, uint64_t seed, int phase, size_t n,
                     double rate) {
  const uint64_t phase_seed = PhaseSeed(seed, phase, 0);
  if (workload.name == "rec_burst") {
    return RecPhase(n, rate, phase_seed);
  }
  if (workload.name == "credit_long") {
    PhaseInput out;
    out.items = CreditItems(n, phase_seed);
    out.schedule = PoissonOrZero(n, rate, PhaseSeed(seed, phase, 1));
    return out;
  }
  return MixedPhase(n, rate, phase_seed);
}

PhasePlan MakePlan(double seconds, bool smoke) {
  PhasePlan plan;
  if (smoke) {
    plan.warmup_s = 0.1;
    plan.rounds = 1;
    plan.window_s = 0.4;
    plan.traced_s = 0.5;
    plan.gate_samples = 16;
    return plan;
  }
  // One warm-up window, then three rounds of five windows (saturation plus
  // four grid points).
  plan.rounds = 3;
  plan.window_s = seconds / 16.0;
  plan.warmup_s = plan.window_s;
  plan.traced_s = seconds * 2.0 / 5.0;
  return plan;
}

Result<std::unique_ptr<Deployment>> Deployment::Create(Transport transport) {
  std::unique_ptr<Deployment> deployment(new Deployment());
  if (transport == Transport::kHttp) {
    ScoringServiceOptions service_options;
    service_options.cluster.n_replicas = kReplicas;
    deployment->service_ =
        std::make_unique<ScoringService>(DeploymentEngineOptions(), service_options);
    if (Status status = deployment->service_->Start(0); !status.ok()) {
      return status;
    }
    deployment->set_ = &deployment->service_->replica_set();
  } else {
    ReplicaSetOptions options;
    options.n_replicas = kReplicas;
    options.engine = DeploymentEngineOptions();
    deployment->owned_set_ = std::make_unique<ReplicaSet>(std::move(options));
    deployment->set_ = deployment->owned_set_.get();
  }
  return deployment;
}

}  // namespace po_bench
