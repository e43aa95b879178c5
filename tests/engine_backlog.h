// Test helpers for driving an Engine through its one admission entry point,
// SubmitGroupAsync.
//
// A Backlog admits requests as groups of one whose completion hook records
// each result. Requests queued while the runtime is stopped are then
// drained by StartWorker() + StopWorker(), in scheduler order; with
// max_concurrent_requests = 1 every decision sees the whole remaining
// queue, so the recorded completion order is the scheduling order.
#ifndef TESTS_ENGINE_BACKLOG_H_
#define TESTS_ENGINE_BACKLOG_H_

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/engine.h"

namespace prefillonly {

// Admits `request` as a group of one.
inline Result<Engine::AsyncSubmission> SubmitOne(Engine& engine, ScoringRequest request,
                                                 Engine::GroupCallback on_done = nullptr) {
  std::vector<ScoringRequest> group;
  group.push_back(std::move(request));
  auto submitted = engine.SubmitGroupAsync(std::move(group), std::move(on_done));
  if (!submitted.ok()) {
    return submitted.status();
  }
  return std::move(submitted.value().front());
}

class Backlog {
 public:
  explicit Backlog(Engine& engine) : engine_(engine) {}

  // Admits `request`; returns its engine id and future.
  Result<Engine::AsyncSubmission> SubmitHandle(ScoringRequest request) {
    // The hook shares the record, so it stays valid whichever of the
    // engine and this Backlog is destroyed first.
    return SubmitOne(engine_, std::move(request),
                     [record = record_](size_t, const Result<ScoringResponse>& result) {
                       std::lock_guard<std::mutex> lock(record->mu);
                       record->results.push_back(result);
                     });
  }
  // Admits `request`; returns its engine id.
  Result<int64_t> Submit(ScoringRequest request) {
    auto submitted = SubmitHandle(std::move(request));
    if (!submitted.ok()) {
      return submitted.status();
    }
    return submitted.value().id;
  }

  // Every result recorded since the last Take, in completion order.
  std::vector<Result<ScoringResponse>> Take() {
    std::lock_guard<std::mutex> lock(record_->mu);
    return std::exchange(record_->results, {});
  }

  // Starts then stops the runtime, which drains the queue. Returns the
  // results delivered by the drain, in completion order.
  std::vector<Result<ScoringResponse>> DrainResults() {
    EXPECT_TRUE(StartAndStop().ok());
    return Take();
  }

  // DrainResults, reporting each failed request as a test failure. Returns
  // the successful responses in completion order; not OK only when the
  // runtime did not start.
  Result<std::vector<ScoringResponse>> Drain() {
    if (Status started = StartAndStop(); !started.ok()) {
      return started;
    }
    std::vector<ScoringResponse> responses;
    for (Result<ScoringResponse>& result : Take()) {
      if (result.ok()) {
        responses.push_back(result.take());
      } else {
        ADD_FAILURE() << "request failed: " << result.status().ToString();
      }
    }
    return responses;
  }

 private:
  struct Record {
    std::mutex mu;
    std::vector<Result<ScoringResponse>> results;
  };

  // Forgets earlier results, then drains the queue through the runtime.
  Status StartAndStop() {
    Take();
    Status started = engine_.StartWorker();
    engine_.StopWorker();
    return started;
  }

  Engine& engine_;
  std::shared_ptr<Record> record_ = std::make_shared<Record>();
};

}  // namespace prefillonly

#endif  // TESTS_ENGINE_BACKLOG_H_
