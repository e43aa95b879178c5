// Configuration of a simulated serving deployment.
//
// One EngineConfig describes the paper's unit of comparison: an engine kind
// (PrefillOnly or one of the four baselines) running a model on a two-GPU
// hardware setup. Non-parallel engines deploy one instance per GPU behind
// the user-id router; TP/PP deploy a single instance spanning both GPUs.
#ifndef SRC_ENGINE_ENGINE_CONFIG_H_
#define SRC_ENGINE_ENGINE_CONFIG_H_

#include <cstdint>

#include "src/gpu/cost_model.h"
#include "src/gpu/memory_model.h"
#include "src/gpu/specs.h"
#include "src/sched/scheduler.h"

namespace prefillonly {

struct EngineConfig {
  EngineKind kind = EngineKind::kPrefillOnly;
  HardwareSetup hardware;

  // Scheduling. PrefillOnly defaults to SRJF with continuous JCT
  // calibration (Algorithm 1); every baseline uses vLLM's FCFS.
  SchedPolicy policy = SchedPolicy::kSrjfCalibrated;
  // Starvation offset, in JCT-estimator units per second of queueing. The
  // default estimator is the cache-miss-token proxy, so lambda = 500 means
  // one second of waiting outweighs 500 uncached tokens (paper default).
  double lambda = 500.0;

  int block_size = 256;
  // Profile-run reserve (§3.1): activation memory is reserved for requests
  // up to this many tokens; what remains becomes the prefix-cache pool.
  // 0 = choose automatically: min(workload max length, engine MIL).
  int64_t reserve_tokens = 0;

  // CPU offload tier (§9): bytes of host memory for KV evicted from the
  // GPU pool. Offloaded prefix hits skip recomputation but pay a reload at
  // `offload_load_bandwidth` (pinned-host-to-device copy). 0 = discard
  // (the paper's default).
  double offload_bytes = 0.0;
  double offload_load_bandwidth = 40e9;

  MemoryModelConfig memory;
  CostModelConfig cost;

  static EngineConfig Make(EngineKind kind, HardwareSetup hardware) {
    EngineConfig config;
    config.kind = kind;
    config.hardware = std::move(hardware);
    if (kind != EngineKind::kPrefillOnly) {
      config.policy = SchedPolicy::kFifo;
    }
    return config;
  }
};

}  // namespace prefillonly

#endif  // SRC_ENGINE_ENGINE_CONFIG_H_
