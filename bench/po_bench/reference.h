// The frozen reference (reference.json): per-workload load parameters that
// every run uses, so parent and change are offered identical load, and the
// reference numbers they were calibrated from. Also the two subcommands
// that read results files: compare and calibrate.
#ifndef BENCH_PO_BENCH_REFERENCE_H_
#define BENCH_PO_BENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "bench/po_bench/args.h"
#include "src/common/status.h"
#include "src/server/json.h"

namespace po_bench {

struct WorkloadParams {
  double c_ref_rps = 0.0;          // reference saturation throughput
  double slo_ms = 0.0;             // latency limit on the tail percentile
  double tail_pct = 99.0;          // the tail percentile, frozen per workload
  std::vector<double> rates_rps;   // the fixed grid, absolute
  size_t lo = 0;                   // index of the lo point in rates_rps
  size_t hi = 0;                   // index of the hi point in rates_rps
};

prefillonly::Result<WorkloadParams> LoadParams(const prefillonly::Json& reference,
                                               const std::string& workload);

// po_bench compare BASE.json... -- CHANGE.json...
int CompareMain(const Args& args);
// po_bench calibrate RESULT.json... --out FILE [--freeze]
int CalibrateMain(const Args& args);

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_REFERENCE_H_
