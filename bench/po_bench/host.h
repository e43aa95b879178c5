// Provenance header recorded in every po_bench results file: which code
// (git sha, dirty flag), which machine (nproc, CPU model, ISA flags), which
// build (resolved kernel backend, build type, compiler), and which inputs
// (seed, hash of the workload configuration). `compare` refuses to set
// results side by side when nproc, backend or build type differ.
#ifndef BENCH_PO_BENCH_HOST_H_
#define BENCH_PO_BENCH_HOST_H_

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "src/common/hash.h"
#include "src/server/json.h"
#include "src/tensor/ops_dispatch.h"

#ifndef PO_BENCH_BUILD_TYPE
#define PO_BENCH_BUILD_TYPE "unknown"
#endif

namespace po_bench {

struct HostInfo {
  std::string git_sha = "unknown";
  bool git_dirty = false;
  int nproc = 0;
  std::string cpu_model;
  std::string isa;
  std::string backend;
  std::string build_type;
  std::string compiler;
};

// CPUs this process may run on (what `nproc` prints).
inline int VisibleCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return CPU_COUNT(&set);
}

inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

inline std::string IsaFlags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  const std::pair<const char*, bool> probes[] = {
      {"sse4.2", __builtin_cpu_supports("sse4.2")},
      {"avx", __builtin_cpu_supports("avx")},
      {"avx2", __builtin_cpu_supports("avx2")},
      {"fma", __builtin_cpu_supports("fma")},
      {"avx512f", __builtin_cpu_supports("avx512f")},
      {"avx512bw", __builtin_cpu_supports("avx512bw")},
      {"avx512vl", __builtin_cpu_supports("avx512vl")},
  };
  for (const auto& [name, present] : probes) {
    if (present) {
      flags += flags.empty() ? name : std::string(" ") + name;
    }
  }
#endif
  return flags.empty() ? "none" : flags;
}

inline HostInfo ProbeHost(std::string git_sha, bool git_dirty) {
  HostInfo host;
  host.git_sha = git_sha.empty() ? "unknown" : std::move(git_sha);
  host.git_dirty = git_dirty;
  host.nproc = VisibleCpus();
  host.cpu_model = CpuModel();
  host.isa = IsaFlags();
  host.backend = prefillonly::KernelBackendName(
      prefillonly::ResolveKernelBackend(prefillonly::KernelBackend::kAuto));
  host.build_type = PO_BENCH_BUILD_TYPE;
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  return host;
}

// FNV-1a of the canonical configuration text, as a hex string.
inline std::string ConfigHash(const std::string& canonical) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    prefillonly::Fnv1a64(canonical.data(), canonical.size())));
  return buf;
}

inline prefillonly::Json HostJson(const HostInfo& host, uint64_t seed,
                                  const std::string& config_hash) {
  prefillonly::Json::Object out;
  out.emplace("git_sha", host.git_sha);
  out.emplace("git_dirty", host.git_dirty);
  out.emplace("nproc", static_cast<int64_t>(host.nproc));
  out.emplace("cpu_model", host.cpu_model);
  out.emplace("isa", host.isa);
  out.emplace("backend", host.backend);
  out.emplace("build_type", host.build_type);
  out.emplace("compiler", host.compiler);
  out.emplace("seed", static_cast<int64_t>(seed));
  out.emplace("config_hash", config_hash);
  return prefillonly::Json(std::move(out));
}

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_HOST_H_
