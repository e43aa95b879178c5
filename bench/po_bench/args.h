// Command-line and file plumbing shared by the po_bench subcommands.
#ifndef BENCH_PO_BENCH_ARGS_H_
#define BENCH_PO_BENCH_ARGS_H_

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/server/json.h"

namespace po_bench {

// Flags take `--name=value` or `--name value`. Switches (`--trace`,
// `--smoke`, ...) may stand alone or take an explicit 0/1. Everything else,
// including a bare `--`, is positional.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  bool Switch(const std::string& name) const { return Get(name, "0") == "1"; }
};

inline prefillonly::Result<Args> ParseArgs(int argc, char** argv, int first,
                                           const std::set<std::string>& switches) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      args.positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    if (eq != std::string::npos) {
      args.flags[name] = arg.substr(eq + 1);
    } else if (switches.count(name) > 0) {
      const bool explicit_value =
          i + 1 < argc && (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1");
      args.flags[name] = explicit_value ? argv[++i] : "1";
    } else if (i + 1 < argc) {
      args.flags[name] = argv[++i];
    } else {
      return prefillonly::Status::InvalidArgument("flag --" + name + " needs a value");
    }
  }
  return args;
}

inline prefillonly::Result<prefillonly::Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return prefillonly::Status::NotFound("cannot read " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = prefillonly::Json::Parse(text.str());
  if (!parsed.ok()) {
    return prefillonly::Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

// Number at `key` of a JSON object, or `fallback`.
inline double JsonNumber(const prefillonly::Json& object, const std::string& key,
                         double fallback = 0.0) {
  const prefillonly::Json* field = object.Find(key);
  return field != nullptr && field->is_number() ? field->AsDouble() : fallback;
}

inline std::string JsonString(const prefillonly::Json& object, const std::string& key) {
  const prefillonly::Json* field = object.Find(key);
  return field != nullptr && field->is_string() ? field->AsString() : "";
}

// One metric declared in BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  double bound = 0.0;  // share of the base median; 0 for per-layer metrics
};

struct BenchmarkSpec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

inline prefillonly::Result<BenchmarkSpec> LoadBenchmarkSpec(const std::string& path) {
  auto json = ReadJsonFile(path);
  if (!json.ok()) {
    return json.status();
  }
  BenchmarkSpec spec;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const prefillonly::Json* list = json.value().Find(section);
    if (list == nullptr || !list->is_array()) {
      return prefillonly::Status::InvalidArgument(path + ": missing " + section);
    }
    std::vector<MetricSpec>& out =
        std::string(section) == "end_to_end" ? spec.end_to_end : spec.per_layer;
    for (const prefillonly::Json& entry : list->AsArray()) {
      out.push_back({JsonString(entry, "name"), JsonString(entry, "unit"),
                     JsonString(entry, "better"), JsonNumber(entry, "bound")});
    }
  }
  return spec;
}

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_ARGS_H_
