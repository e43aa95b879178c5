// Open-loop drivers: send one phase's requests on schedule, whatever the
// system's state, and time each from its SCHEDULED send time, so a stall
// is charged to every request it delays (no coordinated omission).
//
//  * In process: one sender thread calls the non-blocking
//    ReplicaSet::Submit at each scheduled time and one completion thread
//    timestamps finished futures. The backlog therefore forms in the
//    engine's queue, where SRJF can reorder it.
//  * HTTP: kHttpConnections blocking keep-alive connections, each on its
//    own thread, take the next scheduled request in turn. A request whose
//    connection is still busy at its scheduled time waits, and that wait is
//    part of its latency.
#ifndef BENCH_PO_BENCH_DRIVE_H_
#define BENCH_PO_BENCH_DRIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/po_bench/workloads.h"
#include "src/client/http_client.h"

namespace po_bench {

// Seconds on the monotonic clock since process start; every timestamp in a
// run (and in its trace) is on this clock.
double Now();

struct Outcome {
  double sched_s = 0.0;     // when it was due
  double send_s = 0.0;      // when the generator began sending it
  double sent_s = 0.0;      // when Submit / the HTTP call returned to the sender
  double done_s = 0.0;      // when its result was observed
  bool slot_free = true;    // a sender was idle at sched_s (HTTP: a connection)
  bool done = false;        // a terminal result arrived (success or failure)
  bool ok = false;
  std::string error;
  std::vector<double> probabilities;
  double queue_s = 0.0;     // engine-reported
  double execute_s = 0.0;   // engine-reported; of the whole batch
  int64_t batch_size = 1;
  int64_t n_input = 0;
  int64_t n_cached = 0;

  double latency_s() const { return done_s - sched_s; }
};

struct PhaseResult {
  double start_s = 0.0;  // Now() at schedule offset 0
  std::vector<Outcome> outcomes;
  int64_t lost = 0;      // sent but no terminal result before the deadline

  double last_sched_s() const;
  double last_done_s() const;
};

PhaseResult RunInProcess(prefillonly::ReplicaSet& set, const PhaseInput& input);

// The request body mixed_http sends for one item.
std::string ScoreBody(const Item& item);

class HttpDriver {
 public:
  explicit HttpDriver(uint16_t port);
  // `bodies` is index-aligned with input.items (precomputed so the
  // generator does no encoding on the send path).
  PhaseResult Run(const PhaseInput& input, const std::vector<std::string>& bodies);

 private:
  std::vector<std::unique_ptr<prefillonly::HttpClient>> connections_;
};

}  // namespace po_bench

#endif  // BENCH_PO_BENCH_DRIVE_H_
