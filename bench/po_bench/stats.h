// Reported metrics and the order statistics behind them.
#ifndef BENCH_PO_BENCH_STATS_H_
#define BENCH_PO_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace po_bench {

// One reported number. An empty value is printed as null: the sample could
// not support it.
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
  int64_t n = 0;  // samples behind the value
};

// A percentile is reported only when at least this many samples lie beyond
// it; otherwise it is the sample maximum in disguise.
inline constexpr int64_t kMinBeyond = 10;

struct Percentile {
  std::optional<double> value;  // empty when fewer than kMinBeyond lie beyond
  int64_t n = 0;
};

// Nearest-rank percentile `pct` (0-100) of ascending `sorted`.
inline Percentile NearestRank(const std::vector<double>& sorted, double pct) {
  Percentile out;
  out.n = static_cast<int64_t>(sorted.size());
  if (sorted.empty()) {
    return out;
  }
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(pct / 100.0 * static_cast<double>(out.n))));
  if (out.n - rank >= kMinBeyond) {
    out.value = sorted[static_cast<size_t>(rank - 1)];
  }
  return out;
}

// Quartiles as Python's statistics.quantiles(data, n=4) computes them (the
// default "exclusive" method), so spreads match what other tools report.
// Requires at least two values.
inline std::vector<double> Quartiles(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const int64_t ld = static_cast<int64_t>(data.size());
  const int64_t m = ld + 1;
  std::vector<double> out;
  for (int64_t i = 1; i < 4; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    out.push_back((data[j - 1] * static_cast<double>(4 - delta) +
                   data[j] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

inline double Median(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const size_t n = data.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? data[n / 2] : 0.5 * (data[n / 2 - 1] + data[n / 2]);
}

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_STATS_H_
