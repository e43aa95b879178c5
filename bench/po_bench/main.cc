// po_bench — the repository's end-to-end benchmark (bench/po_bench/README.md).
//
//   po_bench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--out DIR] [--reference FILE] [--benchmark FILE]
//                [--git-sha SHA] [--git-dirty 0|1]
//   po_bench compare BASE.json... -- CHANGE.json...
//   po_bench calibrate RESULT.json... --out FILE [--freeze]
//
// `run` measures one workload against a freshly built deployment in this
// process. It prints every metric as `workload metric value unit n=samples`,
// writes a results file with the provenance header, and prints as its last
// line one JSON object {correct, attempted, failed, metrics} carrying the
// metrics BENCHMARK.json declares for the mode: end_to_end untraced,
// per_layer with --trace 1. It exits nonzero when a correctness check
// fails.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/po_bench/args.h"
#include "bench/po_bench/drive.h"
#include "bench/po_bench/host.h"
#include "bench/po_bench/layers.h"
#include "bench/po_bench/reference.h"
#include "bench/po_bench/stats.h"
#include "bench/po_bench/trace.h"
#include "bench/po_bench/workloads.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/server/json.h"

namespace po_bench {
namespace {

using prefillonly::ClusterStats;
using prefillonly::EngineStats;
using prefillonly::Json;

// A run is flagged invalid when the generator itself sent this late at the
// lo rate: the latencies would then measure the generator.
constexpr double kMaxSendLagMs = 1.0;
constexpr double kMiB = 1024.0 * 1024.0;
// Constructions at the start of each set-up batch that are not timed: they
// mostly measure the allocator growing the heap, which varies with the
// host's page-fault cost far more than the construction work does.
constexpr size_t kSetupWarmups = 3;

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
  WorkloadParams params;
  BenchmarkSpec spec;
  HostInfo host;
  std::string config_hash;
};

// Sends phases over the deployment's transport.
class Driver {
 public:
  explicit Driver(Deployment& deployment) : deployment_(deployment) {
    if (deployment.http()) {
      http_ = std::make_unique<HttpDriver>(deployment.port());
    }
  }

  PhaseResult Run(const PhaseInput& input) {
    if (!http_) {
      return RunInProcess(deployment_.set(), input);
    }
    std::vector<std::string> bodies;
    bodies.reserve(input.items.size());
    for (const Item& item : input.items) {
      bodies.push_back(ScoreBody(item));
    }
    return http_->Run(input, bodies);
  }

 private:
  Deployment& deployment_;
  std::unique_ptr<HttpDriver> http_;
};

// One phase's inputs and what came back.
struct Phase {
  PhaseInput input;
  PhaseResult result;
};

// Latency view of one phase. Failed requests count as missing every limit,
// so they sort as +inf into the latency sample.
struct Point {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;
  double mean_ms = 0.0;          // over successful requests
  std::vector<double> lag_ms;    // sends whose sender was free when due
  double drain_ms = 0.0;         // last result after the last scheduled send
};

Point Summarize(const Phase& phase) {
  Point point;
  double ok_sum = 0.0;
  int64_t ok = 0;
  for (const Outcome& o : phase.result.outcomes) {
    ++point.attempted;
    if (o.ok) {
      point.latency_ms.push_back(o.latency_s() * 1e3);
      ok_sum += o.latency_s() * 1e3;
      ++ok;
    } else {
      ++point.failed;
      point.latency_ms.push_back(INFINITY);
    }
    if (o.slot_free) {
      point.lag_ms.push_back((o.send_s - o.sched_s) * 1e3);
    }
  }
  std::sort(point.latency_ms.begin(), point.latency_ms.end());
  std::sort(point.lag_ms.begin(), point.lag_ms.end());
  point.mean_ms = ok > 0 ? ok_sum / static_cast<double>(ok) : 0.0;
  point.drain_ms = std::max(
      0.0, (phase.result.last_done_s() - phase.result.last_sched_s()) * 1e3);
  return point;
}

// A percentile as a metric: null when the sample cannot support it, or
// when it lands on a failed request.
Metric PercentileMetric(const std::string& name, const std::vector<double>& sorted,
                        double pct) {
  const Percentile p = NearestRank(sorted, pct);
  Metric metric{name, std::nullopt, "ms", p.n};
  if (p.value && std::isfinite(*p.value)) {
    metric.value = *p.value;
  }
  return metric;
}

Json OptionalJson(const std::optional<double>& value) {
  return value ? Json(*value) : Json(nullptr);
}

// --- correctness gate ------------------------------------------------------

struct Gate {
  int64_t sampled = 0;
  int64_t equal = 0;
  int64_t lost = 0;
  int64_t submitted = 0;
  int64_t terminal = 0;
  std::string mismatch;
  int64_t failed = 0;       // requests that came back failed or not at all
  std::string first_error;  // of the first failed request, for diagnosis

  bool passed() const {
    return sampled > 0 && equal == sampled && lost == 0 && submitted == terminal;
  }
  Json ToJson() const {
    Json::Object out;
    out.emplace("sampled", sampled);
    out.emplace("bitwise_equal", equal);
    out.emplace("lost", lost);
    out.emplace("engine_submitted", submitted);
    out.emplace("engine_terminal", terminal);
    out.emplace("ledger_balanced", submitted == terminal);
    out.emplace("first_mismatch", mismatch);
    out.emplace("failed_requests", failed);
    out.emplace("first_error", first_error);
    out.emplace("passed", passed());
    return Json(std::move(out));
  }
};

bool BitwiseEqual(const std::vector<prefillonly::TokenProbability>& expected,
                  const std::vector<double>& actual) {
  if (expected.size() != actual.size()) {
    return false;
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (std::memcmp(&expected[i].probability, &actual[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Re-scores a seeded sample of the successful requests on a fresh solo
// engine (one replica, no batching) and requires bitwise-equal
// probabilities, which the within-backend determinism contract guarantees
// for any batch composition and concurrency. Then checks that nothing was
// lost and that the engines' ledger balances.
Gate CheckCorrectness(const std::vector<const Phase*>& phases, Deployment& deployment,
                      uint64_t seed, size_t samples) {
  Gate gate;
  std::vector<std::pair<const Item*, const Outcome*>> ok;
  for (const Phase* phase : phases) {
    gate.lost += phase->result.lost;
    for (size_t i = 0; i < phase->result.outcomes.size(); ++i) {
      const Outcome& outcome = phase->result.outcomes[i];
      if (outcome.ok) {
        ok.emplace_back(&phase->input.items[i], &outcome);
      } else if (gate.failed++ == 0) {
        gate.first_error = outcome.done ? outcome.error : "no result (lost)";
      }
    }
  }
  prefillonly::Rng rng(seed ^ 0x9a7e5eedULL);
  const size_t k = std::min(samples, ok.size());
  for (size_t i = 0; i < k; ++i) {
    std::swap(ok[i], ok[i + rng.NextBounded(ok.size() - i)]);
  }
  prefillonly::EngineOptions options = DeploymentEngineOptions();
  options.max_batch_size = 1;
  options.max_concurrent_requests = 1;
  options.num_threads = 0;  // bits do not depend on the thread count
  prefillonly::Engine solo(options);
  for (size_t i = 0; i < k; ++i) {
    prefillonly::ScoringRequest request;
    request.tokens = ok[i].first->tokens;
    request.allowed_tokens = kAllowed;
    auto result = solo.ScoreSync(std::move(request));
    ++gate.sampled;
    if (result.ok() &&
        BitwiseEqual(result.value().probabilities, ok[i].second->probabilities)) {
      ++gate.equal;
    } else if (gate.mismatch.empty()) {
      gate.mismatch = result.ok() ? "probabilities differ for a " +
                                        std::to_string(ok[i].first->tokens.size()) +
                                        "-token request"
                                  : result.status().message();
    }
  }
  const EngineStats totals = deployment.set().Stats().totals;
  gate.submitted = totals.submitted;
  gate.terminal = totals.completed + totals.failed + totals.cancelled +
                  totals.cancelled_in_flight + totals.deadline_expired +
                  totals.deadline_expired_in_flight;
  return gate;
}

// --- output ----------------------------------------------------------------

std::string FormatValue(const std::optional<double>& value) {
  return value ? Json(*value).Serialize() : "null";
}

void PrintMetrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s n=%lld\n", workload.c_str(), m.name.c_str(),
                FormatValue(m.value).c_str(), m.unit.c_str(), static_cast<long long>(m.n));
  }
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json::Object out;
  for (const Metric& m : metrics) {
    Json::Object entry;
    entry.emplace("value", OptionalJson(m.value));
    entry.emplace("unit", m.unit);
    entry.emplace("n", m.n);
    out.emplace(m.name, Json(std::move(entry)));
  }
  return Json(std::move(out));
}

// The summary line: exactly the metrics BENCHMARK.json declares for this
// mode, under its names and units.
prefillonly::Result<std::string> SummaryLine(bool correct, int64_t attempted, int64_t failed,
                                             const std::vector<MetricSpec>& wanted,
                                             const std::vector<Metric>& metrics) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : metrics) {
    by_name[m.name] = &m;
  }
  Json::Object values;
  for (const MetricSpec& spec : wanted) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end() || it->second->unit != spec.unit) {
      return prefillonly::Status::Internal(
          "BENCHMARK.json declares " + spec.name + " [" + spec.unit +
          "], which this run did not measure in that unit");
    }
    Json::Object entry;
    entry.emplace("value", OptionalJson(it->second->value));
    entry.emplace("unit", spec.unit);
    values.emplace(spec.name, Json(std::move(entry)));
  }
  Json::Object line;
  line.emplace("correct", correct);
  line.emplace("attempted", attempted);
  line.emplace("failed", failed);
  line.emplace("metrics", Json(std::move(values)));
  return Json(std::move(line)).Serialize();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // ru_maxrss is KiB
}

std::string Mode(const RunConfig& cfg) {
  return cfg.smoke ? "smoke" : cfg.trace ? "trace" : "measure";
}

// Writes the results file, prints the metric lines and the summary line;
// returns the process exit code.
int Finish(const RunConfig& cfg, const std::vector<Metric>& metrics, const Gate& gate,
           int64_t attempted, int64_t failed, Json::Object extra) {
  const std::string mode = Mode(cfg);
  Json::Object results = std::move(extra);
  results.emplace("benchmark", "po_bench");
  results.emplace("workload", cfg.workload->name);
  results.emplace("mode", mode);
  results.emplace("seed", static_cast<int64_t>(cfg.seed));
  results.emplace("seconds", cfg.seconds);
  results.emplace("host", HostJson(cfg.host, cfg.seed, cfg.config_hash));
  results.emplace("deployment", DeploymentDescription());
  results.emplace("correct", gate.passed());
  results.emplace("attempted", attempted);
  results.emplace("failed", failed);
  results.emplace("gate", gate.ToJson());
  results.emplace("metrics", MetricsJson(metrics));
  std::filesystem::create_directories(cfg.out_dir);
  const std::string path = cfg.out_dir + "/" + cfg.workload->name +
                           (mode == "measure" ? "" : "." + mode) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", Json(std::move(results)).Serialize().c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "po_bench: cannot write %s\n", path.c_str());
  }

  PrintMetrics(cfg.workload->name, metrics);
  std::printf("%s correctness %s: %lld/%lld sampled bitwise equal, lost=%lld, "
              "ledger %lld/%lld%s%s\n",
              cfg.workload->name.c_str(), gate.passed() ? "PASSED" : "FAILED",
              static_cast<long long>(gate.equal), static_cast<long long>(gate.sampled),
              static_cast<long long>(gate.lost), static_cast<long long>(gate.terminal),
              static_cast<long long>(gate.submitted), gate.mismatch.empty() ? "" : "; ",
              gate.mismatch.c_str());
  std::printf("%s results: %s\n", cfg.workload->name.c_str(), path.c_str());
  auto line = SummaryLine(gate.passed(), attempted, failed,
                          cfg.trace ? cfg.spec.per_layer : cfg.spec.end_to_end, metrics);
  if (!line.ok()) {
    std::fprintf(stderr, "po_bench: %s\n", line.status().message().c_str());
    return 2;
  }
  std::printf("%s\n", line.value().c_str());
  std::fflush(stdout);
  return gate.passed() ? 0 : 1;
}

// --- measured run ------------------------------------------------------------

// One grid rate (or the saturation set) across the rounds of a run.
struct Rounds {
  double rate = 0.0;
  std::vector<Point> points;  // one per round

  int64_t attempted() const {
    int64_t total = 0;
    for (const Point& p : points) {
      total += p.attempted;
    }
    return total;
  }
  int64_t failed() const {
    int64_t total = 0;
    for (const Point& p : points) {
      total += p.failed;
    }
    return total;
  }
  // Median over rounds of a per-round value; rounds where it is
  // unsupported are left out, and none supported gives null.
  std::optional<double> Median(
      const std::function<std::optional<double>(const Point&)>& value) const {
    std::vector<double> values;
    for (const Point& p : points) {
      if (auto v = value(p); v && std::isfinite(*v)) {
        values.push_back(*v);
      }
    }
    return values.empty() ? std::nullopt : std::optional<double>(po_bench::Median(values));
  }
  std::optional<double> Percentile(double pct) const {
    return Median([pct](const Point& p) { return NearestRank(p.latency_ms, pct).value; });
  }
  // A tail over all rounds' samples pooled: one window alone is too short
  // to have ten samples beyond a tail at the lower rates.
  std::optional<double> PooledPercentile(double pct) const {
    std::vector<double> all;
    for (const Point& p : points) {
      all.insert(all.end(), p.latency_ms.begin(), p.latency_ms.end());
    }
    std::sort(all.begin(), all.end());
    const auto value = NearestRank(all, pct).value;
    return value && std::isfinite(*value) ? value : std::nullopt;
  }
  std::optional<double> MeanMs() const {
    return Median([](const Point& p) {
      return p.attempted > p.failed ? std::optional<double>(p.mean_ms) : std::nullopt;
    });
  }
  std::optional<double> DrainMs() const {
    return Median([](const Point& p) { return std::optional<double>(p.drain_ms); });
  }
  bool MeetsSlo(const WorkloadParams& params) const {
    const auto tail = PooledPercentile(params.tail_pct);
    const auto drain = DrainMs();
    return tail && *tail <= params.slo_ms && drain && *drain <= params.slo_ms &&
           static_cast<double>(failed()) <= 0.01 * static_cast<double>(attempted());
  }
  Json ToJson(const WorkloadParams& params) const {
    Json::Object out;
    out.emplace("fraction", rate / params.c_ref_rps);
    out.emplace("rate_rps", rate);
    out.emplace("attempted", attempted());
    out.emplace("failed", failed());
    out.emplace("p50_ms", OptionalJson(Percentile(50)));
    for (double pct : {90.0, 95.0, 99.0}) {
      out.emplace("pooled_p" + std::to_string(static_cast<int>(pct)) + "_ms",
                  OptionalJson(PooledPercentile(pct)));
    }
    out.emplace("mean_ms", OptionalJson(MeanMs()));
    out.emplace("drain_ms", OptionalJson(DrainMs()));
    out.emplace("send_lag_ms_tail", OptionalJson(Median([&](const Point& p) {
                  return NearestRank(p.lag_ms, params.tail_pct).value;
                })));
    out.emplace("meets_slo", MeetsSlo(params));
    Json::Array p50;
    for (const Point& p : points) {
      p50.push_back(OptionalJson(NearestRank(p.latency_ms, 50).value));
    }
    out.emplace("rounds_p50_ms", Json(std::move(p50)));
    return Json(std::move(out));
  }
};

Metric RoundsMetric(const std::string& name, const std::optional<double>& value,
                    const std::string& unit, const Rounds& rounds) {
  return {name, value, unit, rounds.attempted()};
}

int RunMeasured(const RunConfig& cfg) {
  const PhasePlan plan = MakePlan(cfg.seconds, cfg.smoke);
  const WorkloadParams& params = cfg.params;

  // Set-up: the deployment is built several times before the load and again
  // after it, and the median kept, so work moved into construction shows as
  // its own metric and one slow stretch of the host does not decide it. The
  // first batch's last deployment serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  auto construct = [&]() -> bool {
    for (size_t i = 0; i < kSetupWarmups + plan.setup_repeats; ++i) {
      deployment.reset();
      const double t0 = Now();
      auto created = Deployment::Create(cfg.workload->transport);
      if (i >= kSetupWarmups) {
        setup_s.push_back(Now() - t0);
      }
      if (!created.ok()) {
        std::fprintf(stderr, "po_bench: deployment failed: %s\n",
                     created.status().message().c_str());
        return false;
      }
      deployment = std::move(created.value());
    }
    return true;
  };
  if (!construct()) {
    return 2;
  }
  std::unique_ptr<Deployment> serving = std::move(deployment);
  Driver driver(*serving);
  std::vector<Phase> phases;  // every measured phase, for the gate
  auto run_phase = [&](double rate, double seconds) {
    Phase phase;
    const double n = std::llround((rate > 0.0 ? rate : params.c_ref_rps) * seconds);
    phase.input = MakePhase(*cfg.workload, cfg.seed, static_cast<int>(phases.size()),
                            static_cast<size_t>(std::max(1.0, n)), rate);
    phase.result = driver.Run(phase.input);
    phases.push_back(std::move(phase));
    return Summarize(phases.back());
  };

  // The warm-up also offers a saturation set: the first deep queue of a
  // process runs measurably slower than later ones.
  const double lo_rate = params.rates_rps[params.lo];
  (void)run_phase(0.0, plan.warmup_s);
  (void)run_phase(lo_rate, plan.warmup_s);
  // sat_rps pools the rounds' saturation sets: completions over makespans.
  Rounds saturation;
  double sat_completed = 0.0;
  double sat_makespan_s = 0.0;
  std::vector<double> sat_rps_rounds;
  std::vector<double> sat_hit_share;  // cached / input tokens per round
  std::vector<Rounds> grid(params.rates_rps.size());
  for (int round = 0; round < plan.rounds; ++round) {
    saturation.points.push_back(run_phase(0.0, plan.window_s));
    const PhaseResult& sat = phases.back().result;
    const double completed = static_cast<double>(saturation.points.back().attempted -
                                                 saturation.points.back().failed);
    const double makespan_s = sat.last_done_s() - sat.start_s;
    sat_completed += completed;
    sat_makespan_s += makespan_s;
    sat_rps_rounds.push_back(completed / makespan_s);
    double cached = 0.0;
    double input = 0.0;
    for (const Outcome& o : sat.outcomes) {
      cached += static_cast<double>(o.n_cached);
      input += static_cast<double>(o.n_input);
    }
    sat_hit_share.push_back(input > 0.0 ? cached / input : 0.0);
    for (size_t i = 0; i < grid.size(); ++i) {
      grid[i].rate = params.rates_rps[i];
      if (!cfg.smoke || i == params.lo) {
        grid[i].points.push_back(run_phase(params.rates_rps[i], plan.window_s));
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();
  if (!construct()) {
    return 2;
  }
  deployment.reset();

  std::vector<const Phase*> measured;
  for (size_t i = 2; i < phases.size(); ++i) {  // after the two warm-up phases
    measured.push_back(&phases[i]);
  }
  const Gate gate = CheckCorrectness(measured, *serving, cfg.seed, plan.gate_samples);

  const Rounds& lo = grid[params.lo];
  const Rounds& hi = grid[params.hi];
  int64_t attempted = saturation.attempted();
  int64_t failed = saturation.failed();
  double slo_qps = 0.0;
  for (const Rounds& point : grid) {
    attempted += point.attempted();
    failed += point.failed();
    if (!point.points.empty() && point.MeetsSlo(params)) {
      slo_qps = std::max(slo_qps, point.rate);
    }
  }

  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size())});
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", 1});
  metrics.push_back(RoundsMetric("sat_rps",
                                 sat_makespan_s > 0.0
                                     ? std::optional<double>(sat_completed / sat_makespan_s)
                                     : std::nullopt,
                                 "req/s", saturation));
  metrics.push_back(RoundsMetric("p50_ms_lo", lo.Percentile(50), "ms", lo));
  metrics.push_back(
      RoundsMetric("tail_ms_lo", lo.PooledPercentile(params.tail_pct), "ms", lo));
  metrics.push_back(RoundsMetric("p50_ms_hi", hi.Percentile(50), "ms", hi));
  metrics.push_back(
      RoundsMetric("tail_ms_hi", hi.PooledPercentile(params.tail_pct), "ms", hi));
  metrics.push_back(RoundsMetric("mean_ms_hi", hi.MeanMs(), "ms", hi));
  metrics.push_back({"slo_qps", slo_qps, "req/s", static_cast<int64_t>(grid.size())});
  metrics.push_back({"fail_ratio",
                     attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                                   : 0.0,
                     "fraction", attempted});

  const auto lag = lo.Median(
      [&](const Point& p) { return NearestRank(p.lag_ms, params.tail_pct).value; });
  const bool valid = !lag || *lag <= kMaxSendLagMs;
  if (!valid) {
    std::fprintf(stderr,
                 "po_bench: %s: generator send lag p%g at lo is %.3f ms (> %.1f ms); "
                 "this run measures the generator, not the system\n",
                 cfg.workload->name.c_str(), params.tail_pct, *lag, kMaxSendLagMs);
  }

  Json::Object extra;
  Json::Object params_json;
  params_json.emplace("c_ref_rps", params.c_ref_rps);
  params_json.emplace("slo_ms", params.slo_ms);
  params_json.emplace("tail_pct", params.tail_pct);
  params_json.emplace("rounds", static_cast<int64_t>(plan.rounds));
  params_json.emplace("window_s", plan.window_s);
  extra.emplace("params", Json(std::move(params_json)));
  extra.emplace("saturation_rps",
                Json(Json::Array(sat_rps_rounds.begin(), sat_rps_rounds.end())));
  extra.emplace("saturation_hit_share",
                Json(Json::Array(sat_hit_share.begin(), sat_hit_share.end())));
  Json::Array points_json;
  for (const Rounds& point : grid) {
    if (!point.points.empty()) {
      points_json.push_back(point.ToJson(params));
    }
  }
  extra.emplace("points", Json(std::move(points_json)));
  extra.emplace("valid", valid);
  return Finish(cfg, metrics, gate, attempted, failed, std::move(extra));
}

// --- traced run --------------------------------------------------------------

void RecordSpans(const Phase& phase, uint64_t id_base, TraceRecorder& trace) {
  for (size_t i = 0; i < phase.result.outcomes.size(); ++i) {
    const Outcome& o = phase.result.outcomes[i];
    if (!o.done) {
      continue;
    }
    const uint64_t id = id_base + i;
    trace.Request("request", id, o.sched_s, o.done_s);
    trace.Request("send", id, o.send_s, o.sent_s);
    if (o.ok) {
      // Anchored at the send: the engine reports durations, not instants.
      trace.Request("engine.queue", id, o.send_s, o.send_s + o.queue_s, true);
      trace.Request("engine.execute", id, o.send_s + o.queue_s,
                    o.send_s + o.queue_s + o.execute_s, true);
    }
  }
}

int RunTraced(const RunConfig& cfg) {
  const PhasePlan plan = MakePlan(cfg.seconds, cfg.smoke);
  const WorkloadParams& params = cfg.params;
  auto created = Deployment::Create(cfg.workload->transport);
  if (!created.ok()) {
    std::fprintf(stderr, "po_bench: deployment failed: %s\n",
                 created.status().message().c_str());
    return 2;
  }
  Deployment& deployment = *created.value();
  Driver driver(deployment);
  auto make = [&](int index, double rate, double seconds) {
    Phase phase;
    phase.input = MakePhase(*cfg.workload, cfg.seed, index,
                            std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds))),
                            rate);
    return phase;
  };

  const double lo_rate = params.rates_rps[params.lo];
  const double hi_rate = params.rates_rps[params.hi];
  Phase warmup = make(0, lo_rate, plan.warmup_s);
  warmup.result = driver.Run(warmup.input);
  Phase untraced = make(1, hi_rate, plan.traced_s);
  untraced.result = driver.Run(untraced.input);

  TraceRecorder trace;
  Phase traced = make(2, hi_rate, plan.traced_s);
  const ClusterStats before = deployment.set().Stats();
  traced.result = driver.Run(traced.input);
  const ClusterStats after = deployment.set().Stats();
  RecordSpans(traced, 2'000'000, trace);

  const PhaseInput probes = MakePhase(*cfg.workload, cfg.seed, 3, plan.gate_samples, 0.0);
  ReplayInput replay;
  replay.traced = &traced.input;
  replay.traced_result = &traced.result;
  replay.probes = &probes;
  replay.deployment = &deployment;
  std::vector<Metric> metrics = ReplayLayers(replay, trace);

  const Gate gate =
      CheckCorrectness({&untraced, &traced}, deployment, cfg.seed, plan.gate_samples);

  // Per-request splits of the traced point.
  std::vector<double> queue_ms;
  std::vector<double> execute_ms;
  std::vector<double> residual_ms;
  double lane_busy_s = 0.0;
  for (const Outcome& o : traced.result.outcomes) {
    if (!o.ok) {
      continue;
    }
    queue_ms.push_back(o.queue_s * 1e3);
    execute_ms.push_back(o.execute_s * 1e3);
    residual_ms.push_back((o.done_s - o.send_s - o.queue_s - o.execute_s) * 1e3);
    // Batch members each report the whole batch's time.
    lane_busy_s += o.execute_s / static_cast<double>(std::max<int64_t>(1, o.batch_size));
  }
  std::sort(queue_ms.begin(), queue_ms.end());
  std::sort(execute_ms.begin(), execute_ms.end());
  const Point traced_point = Summarize(traced);
  const Point untraced_point = Summarize(untraced);
  const int64_t n = traced_point.attempted;
  const double wall_s = traced.result.last_done_s() - traced.result.start_s;

  const EngineStats& a = before.totals;
  const EngineStats& b = after.totals;
  const double batches = static_cast<double>(b.batches_dispatched - a.batches_dispatched);
  const double lookups = static_cast<double>(b.cache.lookup_tokens - a.cache.lookup_tokens);
  const double affinity =
      static_cast<double>(after.cluster.routed_affinity - before.cluster.routed_affinity);
  const double spill =
      static_cast<double>(after.cluster.routed_spill - before.cluster.routed_spill);
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto tail_metric = [&](const std::string& name, const std::vector<double>& sorted) {
    return PercentileMetric(name, sorted, params.tail_pct);
  };

  const Percentile p50_traced = NearestRank(traced_point.latency_ms, 50);
  const Percentile p50_untraced = NearestRank(untraced_point.latency_ms, 50);
  std::optional<double> overhead;
  if (p50_traced.value && p50_untraced.value && *p50_untraced.value > 0.0) {
    overhead = (*p50_traced.value / *p50_untraced.value - 1.0) * 100.0;
  }

  metrics.push_back(tail_metric("loadgen.send_lag_ms_tail", traced_point.lag_ms));
  metrics.push_back({"server.residual_ms_p50", Median(residual_ms), "ms",
                     static_cast<int64_t>(residual_ms.size())});
  metrics.push_back({"cluster.affinity_share", ratio(affinity, affinity + spill), "fraction", n});
  metrics.push_back(PercentileMetric("core.queue_ms_p50", queue_ms, 50));
  metrics.push_back(tail_metric("core.queue_ms_tail", queue_ms));
  metrics.push_back(PercentileMetric("core.execute_ms_p50", execute_ms, 50));
  metrics.push_back(tail_metric("core.execute_ms_tail", execute_ms));
  metrics.push_back({"core.lane_busy_share",
                     ratio(lane_busy_s, kReplicas * kLanesPerReplica * wall_s), "fraction", n});
  metrics.push_back({"core.peak_in_flight", static_cast<double>(b.peak_in_flight), "count", n});
  metrics.push_back({"sched.batch_size_mean",
                     ratio(static_cast<double>(b.batched_requests - a.batched_requests), batches),
                     "count", static_cast<int64_t>(batches)});
  metrics.push_back(
      {"sched.miss_tokens_per_batch",
       ratio(static_cast<double>(b.batched_miss_tokens - a.batched_miss_tokens), batches),
       "tokens", static_cast<int64_t>(batches)});
  metrics.push_back({"sched.packing_skips", static_cast<double>(b.packing_skips - a.packing_skips),
                     "count", static_cast<int64_t>(batches)});
  metrics.push_back({"kvcache.hit_rate",
                     ratio(static_cast<double>(b.cache.hit_tokens - a.cache.hit_tokens), lookups),
                     "fraction", static_cast<int64_t>(lookups)});
  metrics.push_back({"kvcache.evictions",
                     static_cast<double>(b.cache.evictions - a.cache.evictions), "count", n});
  metrics.push_back({"kvcache.insertions",
                     static_cast<double>(b.cache.insertions - a.cache.insertions), "count", n});
  metrics.push_back({"kvcache.failed_acquires",
                     static_cast<double>(b.cache.failed_acquires - a.cache.failed_acquires),
                     "count", n});
  metrics.push_back({"kvcache.cache_mb", static_cast<double>(b.cache_bytes) / kMiB, "MB", 1});
  metrics.push_back({"model.peak_activation_mb",
                     static_cast<double>(b.peak_activation_bytes) / kMiB, "MB", n});
  metrics.push_back({"trace.overhead_pct", overhead, "%", n});

  const std::string trace_path = cfg.out_dir + "/trace_" + cfg.workload->name + ".json";
  std::filesystem::create_directories(cfg.out_dir);
  if (!trace.Write(trace_path, HostJson(cfg.host, cfg.seed, cfg.config_hash).Serialize())) {
    std::fprintf(stderr, "po_bench: cannot write %s\n", trace_path.c_str());
  }
  std::printf("%s trace: %s\n", cfg.workload->name.c_str(), trace_path.c_str());
  return Finish(cfg, metrics, gate, n, traced_point.failed, Json::Object{});
}

int RunMain(const Args& args) {
  RunConfig cfg;
  cfg.workload = FindWorkload(args.Get("workload", ""));
  if (cfg.workload == nullptr) {
    std::fprintf(stderr, "po_bench run: --workload must be one of rec_burst, credit_long, "
                         "mixed_http\n");
    return 2;
  }
  cfg.seed = std::strtoull(args.Get("seed", "42").c_str(), nullptr, 10);
  cfg.seconds = std::atof(args.Get("seconds", "30").c_str());
  cfg.trace = args.Switch("trace");
  cfg.smoke = args.Switch("smoke");
  cfg.out_dir = args.Get("out", "build-bench/po_bench/results");
  if (cfg.seconds <= 0.0) {
    std::fprintf(stderr, "po_bench run: --seconds must be positive\n");
    return 2;
  }
  auto spec = LoadBenchmarkSpec(args.Get("benchmark", "BENCHMARK.json"));
  auto reference = ReadJsonFile(args.Get("reference", "bench/po_bench/reference.json"));
  if (!spec.ok() || !reference.ok()) {
    std::fprintf(stderr, "po_bench run: %s\n",
                 (spec.ok() ? reference.status() : spec.status()).message().c_str());
    return 2;
  }
  auto params = LoadParams(reference.value(), cfg.workload->name);
  if (!params.ok()) {
    std::fprintf(stderr, "po_bench run: %s\n", params.status().message().c_str());
    return 2;
  }
  cfg.spec = spec.value();
  cfg.params = params.value();
  cfg.host = ProbeHost(args.Get("git-sha", "unknown"), args.Switch("git-dirty"));

  std::string canonical = DeploymentDescription() + "|" + WorkloadDescription(*cfg.workload) +
                          "|mode=" + Mode(cfg) + "|seconds=" + Json(cfg.seconds).Serialize() +
                          "|tail_pct=" + Json(cfg.params.tail_pct).Serialize() +
                          "|slo_ms=" + Json(cfg.params.slo_ms).Serialize() + "|rates=";
  for (double rate : cfg.params.rates_rps) {
    canonical += Json(rate).Serialize() + ",";
  }
  cfg.config_hash = ConfigHash(canonical);
  return cfg.trace ? RunTraced(cfg) : RunMeasured(cfg);
}

}  // namespace
}  // namespace po_bench

int main(int argc, char** argv) {
  using namespace po_bench;
  const std::string command = argc > 1 ? argv[1] : "";
  auto args = ParseArgs(argc, argv, 2, {"trace", "smoke", "freeze", "git-dirty"});
  if (!args.ok()) {
    std::fprintf(stderr, "po_bench: %s\n", args.status().message().c_str());
    return 2;
  }
  if (command == "run") {
    return RunMain(args.value());
  }
  if (command == "compare") {
    return CompareMain(args.value());
  }
  if (command == "calibrate") {
    return CalibrateMain(args.value());
  }
  std::fprintf(stderr,
               "usage: po_bench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                    [--smoke] [--out DIR]\n"
               "       po_bench compare BASE.json... -- CHANGE.json...\n"
               "       po_bench calibrate RESULT.json... --out FILE [--freeze]\n");
  return 2;
}
