// Open-loop arrival processes for the load generator (bench/po_bench).
//
// An OPEN-LOOP generator decides every request's send time BEFORE the run
// from an arrival process, then fires on that schedule no matter how the
// target is coping — unlike a closed loop (fixed worker count, next request
// when the previous answers), which silently backs off exactly when the
// server struggles and so hides the queueing the test exists to measure
// (the coordinated-omission problem; cf. wrk2). The generator charges each
// request's latency from its SCHEDULED time, so dispatch delay shows up in
// the histogram instead of disappearing.
//
// Two processes, both deterministic from a seed (same seed => the same
// schedule, bit for bit — the replay property the determinism test pins):
//
//   * kFixedRate — request i at i/qps seconds: the metronome.
//   * kPoisson   — exponential inter-arrival gaps with mean 1/qps: the
//     memoryless process real independent traffic approximates, and the
//     arrival model of the paper's QPS sweeps.
#ifndef SRC_LOADGEN_ARRIVAL_H_
#define SRC_LOADGEN_ARRIVAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prefillonly {

enum class ArrivalKind {
  kFixedRate,
  kPoisson,
};

struct ArrivalOptions {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double qps = 1.0;  // > 0
  uint64_t seed = 1;  // drives kPoisson; kFixedRate ignores it
};

// Send offsets (seconds from run start) for `n` requests, nondecreasing,
// starting at 0.
std::vector<double> MakeArrivalSchedule(size_t n, const ArrivalOptions& options);

}  // namespace prefillonly

#endif  // SRC_LOADGEN_ARRIVAL_H_
