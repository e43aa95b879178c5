// Fig. 7: QPS vs P99 latency, same grid as Fig. 6. Shows that PrefillOnly's
// JCT-based scheduling does not hurt the tail once the starvation offset
// (lambda = 500) is applied.
//
// Output: the human panels plus BENCH_fig7.json, the panels under
// "simulator". The real CPU engine's latency-vs-load curve is measured by
// bench/po_bench, not here.
#include "bench/bench_common.h"

int main() {
  using namespace prefillonly;
  using namespace prefillonly::bench;
  Header("Fig. 7 - QPS vs P99 latency (5 engines, 2 workloads, 4 setups)");

  const Dataset post_rec = MakePostRecommendationDataset({});
  const Dataset credit = MakeCreditVerificationDataset({});

  Json::Array sim_panels;
  for (const Dataset* dataset : {&post_rec, &credit}) {
    for (const auto& hw : HardwareSetup::All()) {
      const auto grid = QpsGrid(hw, *dataset);
      const auto series = RunQpsSweep(hw, *dataset, grid);
      PrintLatencyPanel(dataset->name + " / " + hw.name, series, LatencyMetric::kP99);
      sim_panels.push_back(SimPanelJson(*dataset, hw, series));
    }
  }

  Json::Object out;
  out.emplace("figure", "fig7_qps_p99_latency");
  out.emplace("metric", "p99");
  out.emplace("simulator", Json(std::move(sim_panels)));

  FILE* f = std::fopen("BENCH_fig7.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fig7.json\n");
    return 1;
  }
  std::fprintf(f, "%s\n", Json(std::move(out)).Serialize().c_str());
  std::fclose(f);
  return 0;
}
