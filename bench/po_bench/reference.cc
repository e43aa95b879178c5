#include "bench/po_bench/reference.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "bench/po_bench/stats.h"
#include "bench/po_bench/workloads.h"

namespace po_bench {

using prefillonly::Json;
using prefillonly::Result;
using prefillonly::Status;

namespace {

// Tail percentiles a workload may freeze, highest first.
constexpr double kTailCandidates[] = {99, 98, 95, 90, 85, 80, 75, 50};
// The SLO is this multiple of the reference p50 at the lo rate, but at
// least kSloOverTail times the reference tail at lo: in a mix of short and
// long requests the tail belongs to the long ones, and a limit the system
// misses even at the lo rate would measure nothing.
constexpr double kSloOverP50 = 10.0;
constexpr double kSloOverTail = 2.0;
// fail_ratio may grow by this much (absolute) before it counts as worse.
constexpr double kFailRatioBound = 0.01;
// Latencies that compare judges but BENCHMARK.json does not declare: their
// run-to-run spread on a drifting host exceeded any bound that could gate a
// change (the tails, and everything at the hi rate, where queueing
// amplifies the drift).
constexpr const char* kUndeclaredLatencies[] = {"tail_ms_lo", "p50_ms_hi", "tail_ms_hi",
                                                 "mean_ms_hi"};
constexpr double kUndeclaredLatencyBound = 0.25;

const Json* Field(const Json& object, const std::string& key) {
  return object.is_object() ? object.Find(key) : nullptr;
}

std::optional<double> MetricValue(const Json& result, const std::string& name) {
  const Json* metrics = Field(result, "metrics");
  const Json* metric = metrics ? Field(*metrics, name) : nullptr;
  const Json* value = metric ? Field(*metric, "value") : nullptr;
  if (value == nullptr || !value->is_number()) {
    return std::nullopt;
  }
  return value->AsDouble();
}

std::vector<double> Values(const std::vector<const Json*>& results, const std::string& name) {
  std::vector<double> out;
  for (const Json* result : results) {
    if (auto value = MetricValue(*result, name)) {
      out.push_back(*value);
    }
  }
  return out;
}

std::string Indent(int depth) { return std::string(static_cast<size_t>(depth) * 2, ' '); }

// Serialize with one member per line, for files kept under version control.
std::string Pretty(const Json& json, int depth = 0) {
  if (json.is_object() && !json.AsObject().empty()) {
    std::string out = "{\n";
    const char* sep = "";
    for (const auto& [key, value] : json.AsObject()) {
      out += sep + Indent(depth + 1) + Json(key).Serialize() + ": " + Pretty(value, depth + 1);
      sep = ",\n";
    }
    return out + "\n" + Indent(depth) + "}";
  }
  if (json.is_array() && !json.AsArray().empty() && !json.AsArray()[0].is_number()) {
    std::string out = "[\n";
    const char* sep = "";
    for (const Json& value : json.AsArray()) {
      out += sep + Indent(depth + 1) + Pretty(value, depth + 1);
      sep = ",\n";
    }
    return out + "\n" + Indent(depth) + "]";
  }
  return json.Serialize();
}

Result<std::vector<Json>> LoadResults(const std::vector<std::string>& paths) {
  std::vector<Json> out;
  for (const std::string& path : paths) {
    auto json = ReadJsonFile(path);
    if (!json.ok()) {
      return json.status();
    }
    if (Field(json.value(), "metrics") == nullptr || Field(json.value(), "host") == nullptr) {
      return Status::InvalidArgument(path + ": not a po_bench results file");
    }
    out.push_back(std::move(json.value()));
  }
  return out;
}

// Results of different hardware, kernel backend or build type measure
// different things; comparing them would report the difference as a change.
Status CheckComparable(const std::vector<Json>& results) {
  const Json& first = *Field(results[0], "host");
  for (const Json& result : results) {
    const Json& host = *Field(result, "host");
    for (const char* key : {"nproc", "backend", "build_type"}) {
      const Json* a = Field(first, key);
      const Json* b = Field(host, key);
      if (a == nullptr || b == nullptr || a->Serialize() != b->Serialize()) {
        return Status::FailedPrecondition(
            std::string("results differ in host.") + key + " (" +
            (a ? a->Serialize() : "missing") + " vs " + (b ? b->Serialize() : "missing") +
            "); refusing to compare");
      }
    }
  }
  return Status::Ok();
}

struct Bound {
  std::string metric;
  bool higher_better = false;
  double relative = 0.0;  // share of the base median, or
  double absolute = 0.0;  // an absolute amount
};

// The BENCHMARK.json bounds, then the workload's extra bounds from the
// reference (metrics that are measured but not declared there).
std::vector<Bound> Bounds(const BenchmarkSpec& spec, const Json* workload_reference) {
  std::vector<Bound> bounds;
  for (const MetricSpec& metric : spec.end_to_end) {
    bounds.push_back({metric.name, metric.better == "higher", metric.bound, 0.0});
  }
  const Json* extra = workload_reference ? Field(*workload_reference, "extra_bounds") : nullptr;
  if (extra != nullptr && extra->is_object()) {
    for (const auto& [name, entry] : extra->AsObject()) {
      bounds.push_back({name, JsonString(entry, "better") == "higher",
                        JsonNumber(entry, "relative"), JsonNumber(entry, "absolute")});
    }
  }
  return bounds;
}

Json BoundJson(const char* better, const char* kind, double value) {
  Json::Object out;
  out.emplace("better", better);
  out.emplace(kind, value);
  return Json(std::move(out));
}

// The verdict rule for one (workload, metric): the base side's quartile
// spread decides whether the bound can be resolved at all; a gain needs
// nine tenths of the pairs and a median shift beyond that spread.
std::string Judge(const std::vector<double>& base, const std::vector<double>& change,
                  const Bound& bound, int* wins, int* pairs) {
  const double base_median = Median(base);
  const double change_median = Median(change);
  const std::vector<double> q = Quartiles(base);
  const double spread = q[2] - q[0];
  const double allowed =
      bound.absolute > 0.0 ? bound.absolute : bound.relative * std::abs(base_median);
  auto better = [&](double a, double b) { return bound.higher_better ? a > b : a < b; };

  *pairs = static_cast<int>(std::min(base.size(), change.size()));
  *wins = 0;
  for (int i = 0; i < *pairs; ++i) {
    *wins += better(change[static_cast<size_t>(i)], base[static_cast<size_t>(i)]) ? 1 : 0;
  }
  const double worse_by =
      bound.higher_better ? base_median - change_median : change_median - base_median;
  if (spread > allowed) {
    const double worst_change = bound.higher_better
                                    ? *std::min_element(change.begin(), change.end())
                                    : *std::max_element(change.begin(), change.end());
    const double best_base = bound.higher_better
                                 ? *std::max_element(base.begin(), base.end())
                                 : *std::min_element(base.begin(), base.end());
    return better(worst_change, best_base) ? "improved" : "unresolved";
  }
  if (worse_by > allowed) {
    return "regressed";
  }
  if (*wins * 10 >= *pairs * 9 && -worse_by > spread) {
    return "improved";
  }
  return "within bound";
}

double RangeShare(const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const double median = Median(values);
  return median == 0.0 ? 0.0 : (*hi - *lo) / std::abs(median);
}

Json StatsJson(const std::vector<double>& values) {
  const std::vector<double> q =
      values.size() >= 2 ? Quartiles(values) : std::vector<double>(3, values[0]);
  Json::Object out;
  out.emplace("median", Median(values));
  out.emplace("q1", q[0]);
  out.emplace("q3", q[2]);
  out.emplace("min", *std::min_element(values.begin(), values.end()));
  out.emplace("max", *std::max_element(values.begin(), values.end()));
  out.emplace("runs", static_cast<int64_t>(values.size()));
  return Json(std::move(out));
}

// Per-metric reference statistics over the runs of one workload and mode.
Json ReferenceStats(const std::vector<const Json*>& runs) {
  std::map<std::string, bool> names;
  for (const Json* run : runs) {
    for (const auto& [name, metric] : Field(*run, "metrics")->AsObject()) {
      names[name] = true;
    }
  }
  Json::Object out;
  for (const auto& [name, unused] : names) {
    const std::vector<double> values = Values(runs, name);
    if (!values.empty()) {
      out.emplace(name, StatsJson(values));
    }
  }
  return Json(std::move(out));
}

// C_ref, the SLO and the tail percentile, from runs at the old parameters.
Result<Json> FreezeParams(const std::vector<const Json*>& runs, const Json& reference) {
  const std::vector<double> sat = Values(runs, "sat_rps");
  const std::vector<double> p50_lo = Values(runs, "p50_ms_lo");
  if (sat.empty() || p50_lo.empty()) {
    return Status::InvalidArgument("runs lack sat_rps or p50_ms_lo");
  }
  const double c_ref = Median(sat);
  const double seconds = JsonNumber(*runs[0], "seconds");
  const double lo = JsonNumber(reference, "lo");
  const PhasePlan plan = MakePlan(seconds, false);
  const int64_t n_lo = plan.rounds * std::llround(lo * c_ref * plan.window_s);
  double tail_pct = 50;
  for (double pct : kTailCandidates) {
    const int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * static_cast<double>(n_lo)));
    if (n_lo - rank >= kMinBeyond) {
      tail_pct = pct;
      break;
    }
  }
  Json::Array rates;
  const Json::Array& grid = Field(reference, "grid")->AsArray();
  for (const Json& fraction : grid) {
    rates.push_back(fraction.AsDouble() * c_ref);
  }
  Json::Object bounds;
  bounds.emplace("slo_qps", BoundJson("higher", "absolute",
                                      (grid[1].AsDouble() - grid[0].AsDouble()) * c_ref));
  bounds.emplace("fail_ratio", BoundJson("lower", "absolute", kFailRatioBound));
  for (const char* name : kUndeclaredLatencies) {
    bounds.emplace(name, BoundJson("lower", "relative", kUndeclaredLatencyBound));
  }

  Json::Object params;
  params.emplace("c_ref_rps", c_ref);
  const std::vector<double> tail_lo = Values(runs, "tail_ms_lo");
  params.emplace("slo_ms", std::max(kSloOverP50 * Median(p50_lo),
                                    tail_lo.empty() ? 0.0 : kSloOverTail * Median(tail_lo)));
  params.emplace("tail_pct", tail_pct);
  params.emplace("rates_rps", Json(std::move(rates)));
  params.emplace("extra_bounds", Json(std::move(bounds)));
  return Json(std::move(params));
}

}  // namespace

Result<WorkloadParams> LoadParams(const Json& reference, const std::string& workload) {
  const Json* workloads = Field(reference, "workloads");
  const Json* entry = workloads ? Field(*workloads, workload) : nullptr;
  const Json* grid = Field(reference, "grid");
  const Json* rates = entry ? Field(*entry, "rates_rps") : nullptr;
  if (entry == nullptr || grid == nullptr || !grid->is_array() || rates == nullptr ||
      !rates->is_array() || rates->AsArray().size() != grid->AsArray().size()) {
    return Status::InvalidArgument("reference has no complete entry for " + workload);
  }
  WorkloadParams params;
  params.c_ref_rps = JsonNumber(*entry, "c_ref_rps");
  params.slo_ms = JsonNumber(*entry, "slo_ms");
  params.tail_pct = JsonNumber(*entry, "tail_pct", 99.0);
  for (const Json& rate : rates->AsArray()) {
    params.rates_rps.push_back(rate.AsDouble());
  }
  const double lo = JsonNumber(reference, "lo");
  const double hi = JsonNumber(reference, "hi");
  for (size_t i = 0; i < grid->AsArray().size(); ++i) {
    const double fraction = grid->AsArray()[i].AsDouble();
    params.lo = std::abs(fraction - lo) < 1e-9 ? i : params.lo;
    params.hi = std::abs(fraction - hi) < 1e-9 ? i : params.hi;
  }
  if (params.c_ref_rps <= 0.0 || params.slo_ms <= 0.0) {
    return Status::InvalidArgument("reference entry for " + workload + " is not calibrated");
  }
  return params;
}

int CompareMain(const Args& args) {
  std::vector<std::string> base_paths;
  std::vector<std::string> change_paths;
  bool after_separator = false;
  for (const std::string& arg : args.positional) {
    if (arg == "--") {
      after_separator = true;
    } else {
      (after_separator ? change_paths : base_paths).push_back(arg);
    }
  }
  if (base_paths.empty() || change_paths.empty()) {
    std::fprintf(stderr, "usage: po_bench compare BASE.json... -- CHANGE.json...\n");
    return 2;
  }
  auto spec = LoadBenchmarkSpec(args.Get("benchmark", "BENCHMARK.json"));
  auto reference = ReadJsonFile(args.Get("reference", "bench/po_bench/reference.json"));
  auto base = LoadResults(base_paths);
  auto change = LoadResults(change_paths);
  for (const Status& status : {spec.status(), reference.status(), base.status(),
                               change.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "compare: %s\n", status.message().c_str());
      return 2;
    }
  }
  std::vector<Json> all = base.value();
  all.insert(all.end(), change.value().begin(), change.value().end());
  if (Status status = CheckComparable(all); !status.ok()) {
    std::fprintf(stderr, "compare: %s\n", status.message().c_str());
    return 2;
  }

  auto measured = [](const std::vector<Json>& results, const std::string& workload) {
    std::vector<const Json*> out;
    for (const Json& result : results) {
      if (JsonString(result, "workload") == workload &&
          JsonString(result, "mode") == "measure") {
        out.push_back(&result);
      }
    }
    return out;
  };

  bool regressed = false;
  std::printf("%-12s %-12s %-36s %-36s %-6s %s\n", "workload", "metric",
              "base median [q1, q3] range", "change median [q1, q3] range", "wins",
              "verdict");
  for (const Workload& workload : Workloads()) {
    const std::vector<const Json*> b = measured(base.value(), workload.name);
    const std::vector<const Json*> c = measured(change.value(), workload.name);
    if (b.empty() || c.empty()) {
      continue;
    }
    // Different load parameters offer different load; the hash covers them.
    const std::string hash = JsonString(*Field(*b[0], "host"), "config_hash");
    for (const auto* side : {&b, &c}) {
      for (const Json* result : *side) {
        if (JsonString(*Field(*result, "host"), "config_hash") != hash) {
          std::fprintf(stderr,
                       "compare: %s results differ in host.config_hash; refusing to "
                       "compare\n",
                       workload.name.c_str());
          return 2;
        }
      }
    }
    const Json* workloads = Field(reference.value(), "workloads");
    for (const Bound& bound :
         Bounds(spec.value(), workloads ? Field(*workloads, workload.name) : nullptr)) {
      const std::vector<double> bv = Values(b, bound.metric);
      const std::vector<double> cv = Values(c, bound.metric);
      if (bv.size() < 2 || cv.size() < 2) {
        std::printf("%-12s %-12s needs at least two runs with a value on each side\n",
                    workload.name.c_str(), bound.metric.c_str());
        continue;
      }
      int wins = 0;
      int pairs = 0;
      const std::string verdict = Judge(bv, cv, bound, &wins, &pairs);
      regressed = regressed || verdict == "regressed";
      const std::vector<double> bq = Quartiles(bv);
      const std::vector<double> cq = Quartiles(cv);
      char base_text[64];
      char change_text[64];
      std::snprintf(base_text, sizeof(base_text), "%.4g [%.4g, %.4g] %.1f%%", Median(bv),
                    bq[0], bq[2], 100.0 * RangeShare(bv));
      std::snprintf(change_text, sizeof(change_text), "%.4g [%.4g, %.4g] %.1f%%",
                    Median(cv), cq[0], cq[2], 100.0 * RangeShare(cv));
      std::printf("%-12s %-12s %-36s %-36s %2d/%-3d %s\n", workload.name.c_str(),
                  bound.metric.c_str(), base_text, change_text, wins, pairs,
                  verdict.c_str());
    }
  }
  return regressed ? 1 : 0;
}

int CalibrateMain(const Args& args) {
  const std::string out_path = args.Get("out", "");
  if (out_path.empty() || args.positional.empty()) {
    std::fprintf(stderr, "usage: po_bench calibrate RESULT.json... --out FILE [--freeze]\n");
    return 2;
  }
  auto old = ReadJsonFile(args.Get("reference", "bench/po_bench/reference.json"));
  auto results = LoadResults(args.positional);
  for (const Status& status : {old.status(), results.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "calibrate: %s\n", status.message().c_str());
      return 2;
    }
  }
  if (Status status = CheckComparable(results.value()); !status.ok()) {
    std::fprintf(stderr, "calibrate: %s\n", status.message().c_str());
    return 2;
  }

  Json::Object reference = old.value().AsObject();
  Json::Object workloads;
  for (const Workload& workload : Workloads()) {
    std::map<std::string, std::vector<const Json*>> by_mode;
    for (const Json& result : results.value()) {
      if (JsonString(result, "workload") == workload.name) {
        by_mode[JsonString(result, "mode")].push_back(&result);
      }
    }
    const Json* old_workloads = Field(old.value(), "workloads");
    const Json* old_entry = old_workloads ? Field(*old_workloads, workload.name) : nullptr;
    Json::Object entry = old_entry && old_entry->is_object() ? old_entry->AsObject()
                                                             : Json::Object{};
    if (!by_mode["measure"].empty()) {
      if (args.Switch("freeze")) {
        auto params = FreezeParams(by_mode["measure"], old.value());
        if (!params.ok()) {
          std::fprintf(stderr, "calibrate %s: %s\n", workload.name.c_str(),
                       params.status().message().c_str());
          return 2;
        }
        for (const auto& [key, value] : params.value().AsObject()) {
          entry[key] = value;
        }
      }
      entry["reference"] = ReferenceStats(by_mode["measure"]);
      entry["reference_seed"] = Json(JsonNumber(*by_mode["measure"][0], "seed"));
    }
    if (!by_mode["trace"].empty()) {
      entry["per_layer_reference"] = ReferenceStats(by_mode["trace"]);
    }
    workloads.emplace(workload.name, Json(std::move(entry)));
  }
  reference["workloads"] = Json(std::move(workloads));
  reference["calibrated_seconds"] = Json(JsonNumber(results.value()[0], "seconds"));
  reference["host"] = *Field(results.value()[0], "host");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "calibrate: cannot write %s\n", out_path.c_str());
    return 2;
  }
  const std::string text = Pretty(Json(std::move(reference))) + "\n";
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0 ? 0 : 2;
}

}  // namespace po_bench
