// The provenance header of a checked-in BENCH_*.json: po_bench's HostInfo
// (bench/po_bench/host.h) — git sha and dirty flag, nproc, CPU model, ISA
// flags, kernel backend, build type, compiler. The sha is read from git at
// run time, so it names the checkout the binary runs in.
#ifndef BENCH_PROVENANCE_H_
#define BENCH_PROVENANCE_H_

#include <cstdio>
#include <string>

#include "bench/po_bench/host.h"

namespace prefillonly::bench {

// The first line `command` prints; empty if it fails or prints nothing.
inline std::string CommandOutput(const char* command) {
  FILE* pipe = popen(command, "r");
  if (pipe == nullptr) {
    return "";
  }
  char buf[256] = {};
  std::string out = std::fgets(buf, sizeof(buf), pipe) != nullptr ? buf : "";
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

// This checkout and host. Probe before opening the output file: rewriting a
// checked-in BENCH file would itself make the checkout dirty.
inline po_bench::HostInfo ProbeCheckout() {
  return po_bench::ProbeHost(CommandOutput("git rev-parse HEAD 2>/dev/null"),
                             !CommandOutput("git status --porcelain 2>/dev/null").empty());
}

// Writes `"host": {` and the HostInfo fields, leaving the object open for
// the caller's own fields and closing brace.
inline void WriteHostFields(FILE* f, const po_bench::HostInfo& host) {
  std::fprintf(f,
               "\"host\": {\"git_sha\": \"%s\", \"git_dirty\": %s, \"nproc\": %d, "
               "\"cpu_model\": \"%s\", \"isa\": \"%s\", \"backend\": \"%s\", "
               "\"build_type\": \"%s\", \"compiler\": \"%s\"",
               host.git_sha.c_str(), host.git_dirty ? "true" : "false", host.nproc,
               host.cpu_model.c_str(), host.isa.c_str(), host.backend.c_str(),
               host.build_type.c_str(), host.compiler.c_str());
}

}  // namespace prefillonly::bench

#endif  // BENCH_PROVENANCE_H_
