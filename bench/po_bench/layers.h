// Per-layer replays for the traced run. Each replay times calls into one
// module's public functions from outside the program, on the traced
// phase's own requests, and records a `replay.<layer>` span.
#ifndef BENCH_PO_BENCH_LAYERS_H_
#define BENCH_PO_BENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench/po_bench/drive.h"
#include "bench/po_bench/stats.h"
#include "bench/po_bench/trace.h"
#include "bench/po_bench/workloads.h"

namespace po_bench {

struct ReplayInput {
  const PhaseInput* traced = nullptr;        // the traced phase's requests
  const PhaseResult* traced_result = nullptr;
  const PhaseInput* probes = nullptr;        // fresh requests for idle probes
  Deployment* deployment = nullptr;          // idle while replays run
};

std::vector<Metric> ReplayLayers(const ReplayInput& input, TraceRecorder& trace);

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_LAYERS_H_
