// Shared helpers for the reproduction benchmarks.
//
// Every bench binary is a no-argument executable that prints the rows or
// series of one table/figure from the paper. These helpers keep the output
// format consistent and factor the QPS-sweep loop shared by Figs. 6/7/9.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/cluster.h"
#include "src/engine/engine_config.h"
#include "src/gpu/memory_model.h"
#include "src/gpu/specs.h"
#include "src/server/json.h"
#include "src/workload/dataset.h"

namespace prefillonly::bench {

inline void Header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline const EngineKind kAllEngines[] = {
    EngineKind::kPrefillOnly, EngineKind::kPagedAttention,
    EngineKind::kChunkedPrefill, EngineKind::kPipelineParallel,
    EngineKind::kTensorParallel,
};

struct SweepPoint {
  double qps = 0.0;
  ClusterResult result;
};

struct SweepSeries {
  EngineKind kind;
  std::vector<SweepPoint> points;
};

// The paper's QPS grid (§7.2): anchor x = PrefillOnly's saturated
// throughput with all requests at once, then probe {x/4, x/2, x, 2x, 3x, 4x}.
inline std::vector<double> QpsGrid(const HardwareSetup& hw, const Dataset& dataset) {
  const double x = MeasureSaturatedThroughput(
      EngineConfig::Make(EngineKind::kPrefillOnly, hw), dataset);
  return {x / 4, x / 2, x, 2 * x, 3 * x, 4 * x};
}

inline Dataset WithArrivals(Dataset dataset, double qps, uint64_t seed) {
  if (dataset.name == "post-recommendation") {
    AssignUserBurstArrivals(dataset, qps, seed);
  } else {
    AssignPoissonArrivals(dataset, qps, seed);
  }
  return dataset;
}

// Runs every engine over the QPS grid on one hardware setup.
inline std::vector<SweepSeries> RunQpsSweep(const HardwareSetup& hw,
                                            const Dataset& dataset,
                                            const std::vector<double>& grid) {
  std::vector<SweepSeries> series;
  for (EngineKind kind : kAllEngines) {
    SweepSeries s;
    s.kind = kind;
    for (double qps : grid) {
      SweepPoint point;
      point.qps = qps;
      point.result =
          RunCluster(EngineConfig::Make(kind, hw), WithArrivals(dataset, qps, 1234));
      s.points.push_back(std::move(point));
    }
    series.push_back(std::move(s));
  }
  return series;
}

// Prints one figure panel: a column per engine, a row per QPS point.
// `metric` selects mean or P99 latency.
enum class LatencyMetric { kMean, kP99 };

inline void PrintLatencyPanel(const std::string& title,
                              const std::vector<SweepSeries>& series,
                              LatencyMetric metric) {
  std::printf("\n--- %s (%s latency, seconds; '-' = infeasible) ---\n", title.c_str(),
              metric == LatencyMetric::kMean ? "mean" : "P99");
  std::printf("%10s", "QPS");
  for (const auto& s : series) {
    std::printf("  %18s", std::string(EngineKindName(s.kind)).c_str());
  }
  std::printf("\n");
  const size_t n_points = series.empty() ? 0 : series[0].points.size();
  for (size_t row = 0; row < n_points; ++row) {
    std::printf("%10.3f", series[0].points[row].qps);
    for (const auto& s : series) {
      const auto& r = s.points[row].result;
      if (!r.Feasible()) {
        std::printf("  %18s", "-");
      } else {
        std::printf("  %18.2f", metric == LatencyMetric::kMean ? r.mean_latency_s
                                                               : r.p99_latency_s);
      }
    }
    std::printf("\n");
  }
}

// One simulator panel (one workload x one hardware setup) as JSON rows.
inline Json SimPanelJson(const Dataset& dataset, const HardwareSetup& hw,
                         const std::vector<SweepSeries>& series) {
  Json::Object panel;
  panel.emplace("workload", dataset.name);
  panel.emplace("hardware", hw.name);
  Json::Array engines;
  for (const auto& s : series) {
    Json::Object engine;
    engine.emplace("engine", std::string(EngineKindName(s.kind)));
    Json::Array rows;
    for (const auto& point : s.points) {
      Json::Object row;
      row.emplace("qps", point.qps);
      row.emplace("feasible", point.result.Feasible());
      row.emplace("mean_latency_s", point.result.mean_latency_s);
      row.emplace("p99_latency_s", point.result.p99_latency_s);
      rows.push_back(Json(std::move(row)));
    }
    engine.emplace("points", Json(std::move(rows)));
    engines.push_back(Json(std::move(engine)));
  }
  panel.emplace("engines", Json(std::move(engines)));
  return Json(std::move(panel));
}

}  // namespace prefillonly::bench

#endif  // BENCH_BENCH_COMMON_H_
