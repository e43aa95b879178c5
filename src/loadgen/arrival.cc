#include "src/loadgen/arrival.h"

#include "src/common/rng.h"

namespace prefillonly {

std::vector<double> MakeArrivalSchedule(size_t n, const ArrivalOptions& options) {
  const double qps = options.qps > 0.0 ? options.qps : 1.0;
  std::vector<double> schedule;
  schedule.reserve(n);
  if (options.kind == ArrivalKind::kFixedRate) {
    for (size_t i = 0; i < n; ++i) {
      schedule.push_back(static_cast<double>(i) / qps);
    }
    return schedule;
  }
  Rng rng(options.seed);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    schedule.push_back(t);
    t += rng.NextExponential(qps);
  }
  return schedule;
}

}  // namespace prefillonly
