#include "bench/po_bench/drive.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "src/server/json.h"

namespace po_bench {

using namespace prefillonly;

namespace {

const std::chrono::steady_clock::time_point kEpoch = std::chrono::steady_clock::now();

// Abandon a phase's stragglers this long after its last send.
constexpr double kDrainDeadlineS = 60.0;

void SleepUntil(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(t)));
}

void RecordResult(Outcome& outcome, const Result<ScoringResponse>& result, double now) {
  outcome.done = true;
  outcome.done_s = now;
  if (!result.ok()) {
    outcome.error = std::string(StatusCodeName(result.status().code())) + ": " +
                    result.status().message();
    return;
  }
  const ScoringResponse& response = result.value();
  outcome.ok = true;
  for (const TokenProbability& p : response.probabilities) {
    outcome.probabilities.push_back(p.probability);
  }
  outcome.queue_s = response.queue_time_s;
  outcome.execute_s = response.execute_time_s;
  outcome.batch_size = response.batch_size;
  outcome.n_input = response.n_input;
  outcome.n_cached = response.n_cached;
}

double Number(const Json& object, const char* key) {
  const Json* field = object.Find(key);
  return field != nullptr && field->is_number() ? field->AsDouble() : 0.0;
}

// Fills a successful outcome from a /v1/score response body.
bool ParseScoreResponse(const std::string& body, Outcome& outcome) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return false;
  }
  const Json& json = parsed.value();
  const Json* probabilities = json.Find("probabilities");
  if (probabilities == nullptr || !probabilities->is_array()) {
    return false;
  }
  for (const Json& p : probabilities->AsArray()) {
    outcome.probabilities.push_back(Number(p, "probability"));
  }
  outcome.queue_s = Number(json, "queue_time_s");
  outcome.execute_s = Number(json, "execute_time_s");
  outcome.batch_size = static_cast<int64_t>(Number(json, "batch_size"));
  outcome.n_input = static_cast<int64_t>(Number(json, "n_input"));
  outcome.n_cached = static_cast<int64_t>(Number(json, "n_cached"));
  outcome.ok = true;
  return true;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEpoch).count();
}

double PhaseResult::last_sched_s() const {
  double last = start_s;
  for (const Outcome& o : outcomes) {
    last = std::max(last, o.sched_s);
  }
  return last;
}

double PhaseResult::last_done_s() const {
  double last = start_s;
  for (const Outcome& o : outcomes) {
    if (o.done) {
      last = std::max(last, o.done_s);
    }
  }
  return last;
}

PhaseResult RunInProcess(ReplicaSet& set, const PhaseInput& input) {
  const size_t n = input.items.size();
  PhaseResult result;
  result.outcomes.resize(n);

  std::mutex mu;  // guards handoff and sender_done
  std::vector<std::pair<size_t, Engine::ResponseFuture>> handoff;
  bool sender_done = false;

  // Polling a pending future costs an atomic load. The idle sleep is 50 us,
  // which bounds the timestamp resolution at about 0.1 ms while few
  // requests are pending; it stretches to 20x the last sweep's cost, so
  // the poller never takes more than about 5% of a core from the system
  // under test when thousands are queued (then only the makespan is used).
  std::thread completion([&] {
    std::vector<std::pair<size_t, Engine::ResponseFuture>> pending;
    double deadline = -1.0;
    double sweep_s = 0.0;
    for (;;) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& entry : handoff) {
          pending.push_back(std::move(entry));
        }
        handoff.clear();
        finished = sender_done;
      }
      bool progressed = false;
      const double sweep_start = Now();
      for (size_t k = 0; k < pending.size();) {
        if (pending[k].second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        const double now = Now();
        RecordResult(result.outcomes[pending[k].first], pending[k].second.get(), now);
        pending[k] = std::move(pending.back());
        pending.pop_back();
        progressed = true;
      }
      sweep_s = Now() - sweep_start;
      if (finished && pending.empty()) {
        return;
      }
      if (finished) {
        if (deadline < 0.0) {
          deadline = Now() + kDrainDeadlineS;
        } else if (Now() > deadline) {
          result.lost = static_cast<int64_t>(pending.size());
          return;
        }
      }
      if (!progressed) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(50e-6, 20.0 * sweep_s)));
      }
    }
  });

  result.start_s = Now() + 0.001;
  for (size_t i = 0; i < n; ++i) {
    Outcome& outcome = result.outcomes[i];
    outcome.sched_s = result.start_s + input.schedule[i];
    SleepUntil(outcome.sched_s);
    outcome.send_s = Now();
    ScoringRequest request;
    request.tokens = input.items[i].tokens;
    request.allowed_tokens = kAllowed;
    request.user_id = input.items[i].user_id;
    auto submission = set.Submit(std::move(request));
    outcome.sent_s = Now();
    if (!submission.ok()) {
      RecordResult(outcome, submission.status(), outcome.sent_s);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    handoff.emplace_back(i, std::move(submission.value().future));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  completion.join();
  return result;
}

std::string ScoreBody(const Item& item) {
  Json::Array tokens;
  tokens.reserve(item.tokens.size());
  for (int32_t t : item.tokens) {
    tokens.push_back(Json(static_cast<int64_t>(t)));
  }
  Json::Array allowed;
  for (int32_t t : kAllowed) {
    allowed.push_back(Json(static_cast<int64_t>(t)));
  }
  Json::Object body;
  body.emplace("tokens", Json(std::move(tokens)));
  body.emplace("allowed_tokens", Json(std::move(allowed)));
  body.emplace("user_id", Json(item.user_id));
  return Json(std::move(body)).Serialize();
}

HttpDriver::HttpDriver(uint16_t port) {
  for (int c = 0; c < kHttpConnections; ++c) {
    HttpClientOptions options;
    options.port = port;
    connections_.push_back(std::make_unique<HttpClient>(options));
  }
}

PhaseResult HttpDriver::Run(const PhaseInput& input,
                            const std::vector<std::string>& bodies) {
  const size_t n = input.items.size();
  PhaseResult result;
  result.outcomes.resize(n);
  result.start_s = Now() + 0.001;
  std::atomic<size_t> next{0};

  std::vector<std::thread> workers;
  for (auto& connection : connections_) {
    workers.emplace_back([&, client = connection.get()] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        Outcome& outcome = result.outcomes[i];
        outcome.sched_s = result.start_s + input.schedule[i];
        outcome.slot_free = Now() <= outcome.sched_s;
        SleepUntil(outcome.sched_s);
        outcome.send_s = Now();
        auto response = client->Post("/v1/score", bodies[i]);
        outcome.sent_s = outcome.done_s = Now();
        outcome.done = true;
        if (!response.ok()) {
          outcome.error = std::string(StatusCodeName(response.status().code())) +
                          ": " + response.status().message();
          continue;
        }
        if (response.value().status != 200) {
          outcome.error = "HTTP " + std::to_string(response.value().status) + ": " +
                          response.value().body;
          continue;
        }
        if (!ParseScoreResponse(response.value().body, outcome)) {
          outcome.error = "unparsable response: " + response.value().body;
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  return result;
}

}  // namespace po_bench
