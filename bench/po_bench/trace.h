// In-memory span recorder for the traced run, written out once at the end
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Request spans are nestable async events keyed by the request id, so the
// spans of one request share an identifier and nest by time; replay spans
// are complete events on their own track.
#ifndef BENCH_PO_BENCH_TRACE_H_
#define BENCH_PO_BENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace po_bench {

class TraceRecorder {
 public:
  // A span of request `id`. `derived` marks spans reconstructed from
  // engine-reported durations rather than observed directly.
  void Request(const char* name, uint64_t id, double begin_s, double end_s,
               bool derived = false) {
    spans_.push_back({name, id, begin_s, end_s, true, derived});
  }
  // A replay of one layer, on the replay track.
  void Replay(const std::string& name, double begin_s, double end_s) {
    spans_.push_back({name, 0, begin_s, end_s, false, false});
  }

  // Names are fixed identifiers (no characters that need JSON escaping).
  bool Write(const std::string& path, const std::string& other_data_json) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[",
                 other_data_json.c_str());
    const char* sep = "\n";
    for (const Span& s : spans_) {
      const double ts = s.begin_s * 1e6;
      const double dur = (s.end_s - s.begin_s) * 1e6;
      const char* args = s.derived ? ",\"args\":{\"derived\":true}" : "";
      if (s.async) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\",\"id\":%llu,"
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f%s},\n"
                     "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\",\"id\":%llu,"
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f}",
                     sep, s.name.c_str(), static_cast<unsigned long long>(s.id), ts, args,
                     s.name.c_str(), static_cast<unsigned long long>(s.id), ts + dur);
      } else {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"replay\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":2,\"ts\":%.3f,\"dur\":%.3f}",
                     sep, s.name.c_str(), ts, dur);
      }
      sep = ",\n";
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    uint64_t id;
    double begin_s;
    double end_s;
    bool async;
    bool derived;
  };
  std::vector<Span> spans_;
};

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_TRACE_H_
