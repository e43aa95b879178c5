// Fig. 6: QPS vs MEAN latency for 5 engines x 2 workloads x 4 hardware
// setups (8 panels). PrefillOnly should hold the lowest latency at high
// QPS everywhere; tensor parallelism may win at low QPS (2 GPUs per
// request), which is the paper's observed crossover.
//
// Output: the human panels plus BENCH_fig6.json, the panels under
// "simulator". The real CPU engine's latency-vs-load curve is measured by
// bench/po_bench, not here.
#include "bench/bench_common.h"

int main() {
  using namespace prefillonly;
  using namespace prefillonly::bench;
  Header("Fig. 6 - QPS vs mean latency (5 engines, 2 workloads, 4 setups)");

  const Dataset post_rec = MakePostRecommendationDataset({});
  const Dataset credit = MakeCreditVerificationDataset({});

  Json::Array sim_panels;
  for (const Dataset* dataset : {&post_rec, &credit}) {
    for (const auto& hw : HardwareSetup::All()) {
      const auto grid = QpsGrid(hw, *dataset);
      const auto series = RunQpsSweep(hw, *dataset, grid);
      PrintLatencyPanel(dataset->name + " / " + hw.name, series,
                        LatencyMetric::kMean);
      sim_panels.push_back(SimPanelJson(*dataset, hw, series));
    }
  }

  Json::Object out;
  out.emplace("figure", "fig6_qps_mean_latency");
  out.emplace("metric", "mean");
  out.emplace("simulator", Json(std::move(sim_panels)));

  FILE* f = std::fopen("BENCH_fig6.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fig6.json\n");
    return 1;
  }
  std::fprintf(f, "%s\n", Json(std::move(out)).Serialize().c_str());
  std::fclose(f);
  return 0;
}
