// Load-generation building blocks (src/loadgen/):
//   * arrival schedules — seeded determinism (same seed => the same
//     schedule bit for bit, distinct seeds => distinct schedules);
//   * the HDR-style histogram — percentiles against an exact sorted-vector
//     nearest-rank reference, within the documented 2^-b relative bound.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/histogram.h"

namespace prefillonly {
namespace {

// ----------------------------------------------------------------- arrivals

TEST(LoadgenArrivalTest, PoissonSameSeedSameSchedule) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kPoisson;
  options.qps = 25.0;
  options.seed = 99;
  const auto a = MakeArrivalSchedule(500, options);
  const auto b = MakeArrivalSchedule(500, options);
  ASSERT_EQ(a.size(), 500u);
  // Bit-for-bit replay, not approximate: the whole point of seeding.
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(LoadgenArrivalTest, PoissonDistinctSeedsDiffer) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kPoisson;
  options.qps = 25.0;
  options.seed = 1;
  const auto a = MakeArrivalSchedule(100, options);
  options.seed = 2;
  const auto b = MakeArrivalSchedule(100, options);
  EXPECT_NE(a, b);
}

TEST(LoadgenArrivalTest, PoissonMeanRateApproximatesQps) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kPoisson;
  options.qps = 50.0;
  options.seed = 7;
  const auto schedule = MakeArrivalSchedule(4000, options);
  const double measured_qps =
      static_cast<double>(schedule.size() - 1) / schedule.back();
  EXPECT_NEAR(measured_qps, 50.0, 5.0);  // ~4000 samples: well within 10%
}

TEST(LoadgenArrivalTest, FixedRateIsAMetronome) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kFixedRate;
  options.qps = 10.0;
  const auto schedule = MakeArrivalSchedule(5, options);
  ASSERT_EQ(schedule.size(), 5u);
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_DOUBLE_EQ(schedule[i], static_cast<double>(i) / 10.0);
  }
}

// ---------------------------------------------------------------- histogram

// Exact nearest-rank percentile over a sorted copy — the reference the
// histogram's bounded-error answer is checked against.
double NearestRankMicros(std::vector<int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(values.size())))));
  return static_cast<double>(values[rank - 1]);
}

TEST(LoadgenHistogramTest, PercentilesWithinDocumentedBound) {
  LatencyHistogram histogram(6);
  EXPECT_DOUBLE_EQ(histogram.MaxRelativeError(), 1.0 / 64.0);

  // Latencies spanning five orders of magnitude (0.1 ms .. multiple
  // seconds), heavy-tailed like a saturating server.
  Rng rng(42);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const double magnitude = std::pow(10.0, 2.0 + 4.0 * rng.NextDouble());
    const int64_t micros = static_cast<int64_t>(magnitude);
    values.push_back(micros);
    histogram.RecordMicros(micros);
  }
  ASSERT_EQ(histogram.count(), 20000);

  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double reference = NearestRankMicros(values, q);
    const double reported = histogram.Percentile(q) * 1e6;
    // The documented contract: relative error <= 2^-b (plus half a micro
    // for the integer bucket midpoint).
    EXPECT_NEAR(reported, reference,
                reference * histogram.MaxRelativeError() + 0.5)
        << "q=" << q;
  }
  const double mean_reference =
      static_cast<double>(std::accumulate(values.begin(), values.end(),
                                          int64_t{0})) /
      static_cast<double>(values.size());
  // The mean is tracked exactly, no bucket error at all.
  EXPECT_DOUBLE_EQ(histogram.Mean() * 1e6, mean_reference);
  EXPECT_DOUBLE_EQ(histogram.Min() * 1e6,
                   static_cast<double>(*std::min_element(values.begin(), values.end())));
  EXPECT_DOUBLE_EQ(histogram.Max() * 1e6,
                   static_cast<double>(*std::max_element(values.begin(), values.end())));
}

TEST(LoadgenHistogramTest, SmallValuesAreExact) {
  LatencyHistogram histogram(6);
  for (int64_t v : {0, 1, 5, 17, 63}) {  // all below 2^6: the exact region
    histogram.RecordMicros(v);
  }
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0) * 1e6, 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0) * 1e6, 63.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5) * 1e6, 5.0);
}

TEST(LoadgenHistogramTest, MergeMatchesSingleRecorder) {
  LatencyHistogram merged(6);
  LatencyHistogram single(6);
  std::vector<LatencyHistogram> shards(4, LatencyHistogram(6));
  Rng rng(7);
  for (int i = 0; i < 8000; ++i) {
    const int64_t micros = static_cast<int64_t>(rng.NextBounded(5'000'000));
    single.RecordMicros(micros);
    shards[static_cast<size_t>(i) % shards.size()].RecordMicros(micros);
  }
  for (const LatencyHistogram& shard : shards) {
    ASSERT_TRUE(merged.Merge(shard).ok());
  }
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_DOUBLE_EQ(merged.Mean(), single.Mean());
  EXPECT_DOUBLE_EQ(merged.Min(), single.Min());
  EXPECT_DOUBLE_EQ(merged.Max(), single.Max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(q), single.Percentile(q)) << "q=" << q;
  }
}

TEST(LoadgenHistogramTest, MergeRejectsMismatchedResolution) {
  LatencyHistogram coarse(4);
  LatencyHistogram fine(8);
  EXPECT_EQ(coarse.Merge(fine).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace prefillonly
