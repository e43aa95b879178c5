// HDR-style log-bucketed latency histogram (ISSUE 10).
//
// A latency recorder: fixed memory, O(1) record, mergeable
// across worker threads, and percentiles with a BOUNDED RELATIVE error —
// the property a sorted-vector reservoir cannot give without unbounded
// memory. The layout is the classic HdrHistogram bucketing, restated:
//
//   * Values are recorded as non-negative integer microseconds.
//   * Values below 2^b (b = sub_bucket_bits, default 6) are EXACT: one
//     bucket per value.
//   * Every further power-of-two range [2^k, 2^(k+1)) is split into
//     2^(b-1) equal sub-buckets — so a bucket spanning [v, v + 2^e) always
//     has width 2^e <= v / 2^(b-1), and reporting the bucket MIDPOINT makes
//     the worst-case relative error
//
//         |reported - true| / true  <=  2^-b       (1.5625% at b = 6)
//
//     which is the bound the unit test checks against an exact
//     sorted-vector reference (tests/loadgen_test.cc).
//
// Mean/min/max are tracked exactly on the side (the sum is exact integer
// micros), so only the percentile read-out pays the bucketing error.
//
// Thread model: Record() is NOT thread-safe; each loadgen worker owns a
// private histogram and the runner Merge()s them after the run — the
// standard sharded-counter pattern, zero contention on the hot path.
#ifndef SRC_LOADGEN_HISTOGRAM_H_
#define SRC_LOADGEN_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace prefillonly {

class LatencyHistogram {
 public:
  // `sub_bucket_bits` in [1, 20]: relative error bound is 2^-bits.
  explicit LatencyHistogram(int sub_bucket_bits = 6);

  void Record(double seconds) { RecordMicros(ToMicros(seconds)); }
  void RecordMicros(int64_t micros);

  // Element-wise sum; `other` must use the same sub_bucket_bits.
  Status Merge(const LatencyHistogram& other);

  // Quantile in [0, 1] -> representative latency in SECONDS (bucket
  // midpoint; exact below 2^bits micros). 0 when empty.
  double Percentile(double q) const;
  double Mean() const;  // exact (from the integer sum), in seconds
  double Min() const;   // exact, in seconds; 0 when empty
  double Max() const;   // exact, in seconds; 0 when empty

  int64_t count() const { return count_; }
  int sub_bucket_bits() const { return bits_; }
  // The documented worst-case relative error of Percentile(): 2^-bits.
  double MaxRelativeError() const;

 private:
  static int64_t ToMicros(double seconds);
  size_t BucketIndex(int64_t micros) const;
  int64_t BucketMidpointMicros(size_t index) const;

  int bits_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  int64_t sum_micros_ = 0;
  int64_t min_micros_ = 0;
  int64_t max_micros_ = 0;
};

}  // namespace prefillonly

#endif  // SRC_LOADGEN_HISTOGRAM_H_
