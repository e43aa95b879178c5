// Chaos suite (ISSUE 6): deterministic fault injection, cooperative
// in-flight abort, and graceful degradation under pressure.
//
// Two kinds of tests live here:
//  * FaultInjectorTest.* — the schedule grammar and trigger semantics of the
//    process-global injector (fast, deterministic; runs in the main suite);
//  * Chaos*.* — engine/server tests that replay seeded fault schedules and
//    assert the robustness invariants: no crash, no lost or double
//    completion, balanced terminal accounting, every promise fulfilled, and
//    bitwise-unchanged logits whenever injection is disabled. These carry
//    the `chaos` ctest label (CMakeLists.txt) and run as their own CI job.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "prefillonly/client.h"
#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/request.h"
#include "src/server/http_server.h"
#include "tests/engine_backlog.h"

namespace prefillonly {
namespace {

EngineOptions TinyChaosOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  options.cache_budget_tokens = 512;
  options.mode = PrefillMode::kChunked;  // chunk boundaries = abort polls
  options.chunk_size = 32;
  options.num_threads = 2;
  return options;
}

std::vector<int32_t> Tokens(int64_t n, uint64_t seed, int64_t vocab = 256) {
  Rng rng(seed);
  std::vector<int32_t> out(static_cast<size_t>(n));
  for (auto& t : out) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return out;
}

ScoringRequest YesNoRequest(std::vector<int32_t> tokens, int64_t user = 0) {
  ScoringRequest request;
  request.user_id = user;
  request.tokens = std::move(tokens);
  request.allowed_tokens = {10, 20};
  return request;
}

::testing::AssertionResult SameBits(const std::vector<TokenProbability>& a,
                                    const std::vector<TokenProbability>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].token != b[i].token ||
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "probability " << i << ": " << a[i].probability << " vs "
             << b[i].probability;
    }
  }
  return ::testing::AssertionSuccess();
}

// Sum of every terminal-outcome bucket; the balance invariant is
// submitted == Terminal(stats) regardless of which faults fired.
int64_t Terminal(const EngineStats& stats) {
  return stats.completed + stats.failed + stats.cancelled +
         stats.cancelled_in_flight + stats.deadline_expired +
         stats.deadline_expired_in_flight;
}

// ----------------------------------------------- injector grammar & triggers

TEST(FaultInjectorTest, IndexAndFirstNTriggers) {
  FaultScope scope("alloc.kv_block=@2,4;offload.read=x2");
  auto& injector = FaultInjector::Global();
  EXPECT_TRUE(injector.enabled());
  // @2,4: exactly the 2nd and 4th hits fire.
  std::vector<bool> fires;
  for (int i = 0; i < 5; ++i) {
    fires.push_back(injector.Fire(fault::kAllocKvBlock));
  }
  EXPECT_EQ(fires, (std::vector<bool>{false, true, false, true, false}));
  // x2: the first two hits fire.
  EXPECT_TRUE(injector.Fire(fault::kOffloadRead));
  EXPECT_TRUE(injector.Fire(fault::kOffloadRead));
  EXPECT_FALSE(injector.Fire(fault::kOffloadRead));

  const auto stats = injector.SiteStats();
  EXPECT_EQ(stats.at(fault::kAllocKvBlock).hits, 5);
  EXPECT_EQ(stats.at(fault::kAllocKvBlock).fires, 2);
  EXPECT_EQ(stats.at(fault::kOffloadRead).hits, 3);
  EXPECT_EQ(stats.at(fault::kOffloadRead).fires, 2);
  EXPECT_EQ(injector.total_fires(), 4);
}

TEST(FaultInjectorTest, EveryNthTrigger) {
  FaultScope scope("cache.force_miss=n3");
  std::vector<bool> fires;
  for (int i = 0; i < 6; ++i) {
    fires.push_back(FaultInjector::Global().Fire(fault::kCacheForceMiss));
  }
  EXPECT_EQ(fires, (std::vector<bool>{false, false, true, false, false, true}));
}

TEST(FaultInjectorTest, ProbabilityStreamIsSeedDeterministic) {
  constexpr int kHits = 64;
  auto sample = [](const std::string& spec) {
    FaultScope scope(spec);
    std::vector<bool> fires;
    for (int i = 0; i < kHits; ++i) {
      fires.push_back(FaultInjector::Global().Fire(fault::kCacheForceMiss));
    }
    return fires;
  };
  const auto a = sample("seed=5;cache.force_miss=p0.5");
  const auto b = sample("seed=5;cache.force_miss=p0.5");
  const auto c = sample("seed=6;cache.force_miss=p0.5");
  // Same seed replays the exact same fault sequence; a different seed is a
  // different sequence (64 coin flips colliding is a 2^-64 event).
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  const auto fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, kHits);
}

TEST(FaultInjectorTest, MalformedSpecRejectedAndDisabled) {
  auto& injector = FaultInjector::Global();
  EXPECT_FALSE(injector.LoadSchedule("alloc.kv_block=z9").ok());
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.Fire(fault::kAllocKvBlock));
  EXPECT_FALSE(injector.LoadSchedule("not a schedule").ok());
  EXPECT_FALSE(injector.LoadSchedule("seed=notanumber;offload.read=x1").ok());
  EXPECT_FALSE(injector.LoadSchedule("alloc.kv_block=p1.5").ok());
}

TEST(FaultInjectorTest, DisabledInjectorNeverFiresOrCounts) {
  auto& injector = FaultInjector::Global();
  injector.Clear();
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(injector.Fire(fault::kAllocActivation));
  }
  EXPECT_TRUE(injector.SiteStats().empty());
  EXPECT_EQ(injector.total_fires(), 0);
}

TEST(FaultInjectorTest, StallKnobParsed) {
  FaultScope scope("exec.stall=x1;stall_ms=250");
  EXPECT_EQ(FaultInjector::Global().stall_ms(), 250);
}

// --------------------------------------- allocation-failure paths (ISSUE 6)

TEST(ChaosAllocTest, KvBlockAllocFailureRunsCold) {
  FaultScope scope("alloc.kv_block=@1");
  Engine engine(TinyChaosOptions());
  // First block allocation of the first request fails (injected): the
  // request runs cold — it succeeds with no prefix, publishes nothing and
  // leaks no pin.
  auto cold = engine.ScoreSync(YesNoRequest(Tokens(96, 1)));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().n_cached, 0);
  EXPECT_EQ(engine.stats().cache.failed_acquires, 1);
  EXPECT_EQ(engine.stats().cache.insertions, 0);
  EXPECT_EQ(engine.stats().cache_bytes, 0u);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
  // The identical request now reserves its blocks, gets the same bits and
  // publishes its KV; a third run hits the cache it left behind.
  auto ok = engine.ScoreSync(YesNoRequest(Tokens(96, 1)));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(SameBits(cold.value().probabilities, ok.value().probabilities));
  EXPECT_GT(engine.stats().cache.insertions, 0);
  auto cached = engine.ScoreSync(YesNoRequest(Tokens(96, 1)));
  ASSERT_TRUE(cached.ok());
  EXPECT_GT(cached.value().n_cached, 0);
  EXPECT_TRUE(SameBits(ok.value().probabilities, cached.value().probabilities));
  EXPECT_EQ(engine.stats().failed, 0);
}

TEST(ChaosAllocTest, ActivationArenaFailureIsCpuOom) {
  FaultScope scope("alloc.activation=@1");
  Engine engine(TinyChaosOptions());
  auto failed = engine.ScoreSync(YesNoRequest(Tokens(64, 2)));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  auto ok = engine.ScoreSync(YesNoRequest(Tokens(64, 2)));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ChaosAllocTest, ForcedCacheMissRecomputesIdenticalBits) {
  Engine engine(TinyChaosOptions());
  const auto tokens = Tokens(96, 3);
  auto primed = engine.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(primed.ok());
  // Every subsequent lookup is forced to miss: the full prompt recomputes,
  // and the determinism contract demands bitwise-identical logits anyway.
  FaultScope scope("cache.force_miss=p1");
  auto missed = engine.ScoreSync(YesNoRequest(tokens));
  ASSERT_TRUE(missed.ok());
  EXPECT_EQ(missed.value().n_cached, 0);
  EXPECT_TRUE(SameBits(primed.value().probabilities, missed.value().probabilities));
}

// ------------------------------------------- cooperative in-flight abort

TEST(ChaosAbortTest, DeadlineLapsingBetweenChunksSkipsRemainingWork) {
  // Baseline: the same request on an uninjected engine, counting the chunk
  // polls a full prefill performs.
  const auto tokens = Tokens(128, 4);
  int64_t baseline_polls = 0;
  {
    Engine engine(TinyChaosOptions());
    ASSERT_TRUE(engine.ScoreSync(YesNoRequest(tokens)).ok());
    baseline_polls = engine.stats().abort_checks;
    ASSERT_GT(baseline_polls, 1) << "chunked prefill must poll per chunk";
  }

  // Injected run: the lane stalls 600 ms after dequeue, so a 150 ms
  // deadline lapses BETWEEN dispatch and the first chunk. The first
  // cooperative poll aborts the pass with kDeadlineExceeded.
  FaultScope scope("exec.stall=x1;stall_ms=600");
  Engine engine(TinyChaosOptions());
  ASSERT_TRUE(engine.StartWorker().ok());
  ScoringRequest request = YesNoRequest(tokens);
  request.deadline_ms = 150;
  auto submitted = SubmitOne(engine, std::move(request));
  ASSERT_TRUE(submitted.ok());
  auto result = submitted.value().future.get();
  engine.StopWorker();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const auto stats = engine.stats();
  // The new terminal bucket, disjoint from queued expiry and from failed.
  EXPECT_EQ(stats.deadline_expired_in_flight, 1);
  EXPECT_EQ(stats.deadline_expired, 0);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 0);
  // abort_checks counts only polls that let the prefill CONTINUE: the
  // aborted run stopped at its first poll, so against the baseline's
  // per-chunk count this proves the remaining chunks never executed.
  EXPECT_LT(stats.abort_checks, baseline_polls);
  EXPECT_EQ(Terminal(stats), stats.submitted);
}

TEST(ChaosAbortTest, CancelInFlightStopsAtNextChunkBoundary) {
  const auto tokens = Tokens(128, 5);
  int64_t baseline_polls = 0;
  {
    Engine engine(TinyChaosOptions());
    ASSERT_TRUE(engine.ScoreSync(YesNoRequest(tokens)).ok());
    baseline_polls = engine.stats().abort_checks;
  }

  // The stall opens a deterministic window between dispatch (the request is
  // "running" from the moment it leaves the queue) and the first chunk;
  // cancelling inside it must stop the pass at the first poll.
  FaultScope scope("exec.stall=x1;stall_ms=600");
  Engine engine(TinyChaosOptions());
  ASSERT_TRUE(engine.StartWorker().ok());
  auto submitted = SubmitOne(engine, YesNoRequest(tokens));
  ASSERT_TRUE(submitted.ok());
  const int64_t id = submitted.value().id;
  while (engine.Phase(id) != Engine::RequestPhase::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine.Cancel(id).ok());
  auto result = submitted.value().future.get();
  engine.StopWorker();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cancelled_in_flight, 1);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_LT(stats.abort_checks, baseline_polls);
  EXPECT_EQ(Terminal(stats), stats.submitted);
}

// --------------------------------------------------- graceful degradation

TEST(ChaosDegradeTest, WatchdogFailsStuckPromiseAndTurnsHealthDegraded) {
  // The lane wedges for 800 ms; the 100 ms watchdog must fail the promise
  // long before the lane recovers, so the async client is never left
  // hanging behind it.
  FaultScope scope("exec.stall=x1;stall_ms=800");
  EngineOptions options = TinyChaosOptions();
  options.watchdog_timeout_ms = 100;
  Engine engine(options);
  EXPECT_EQ(engine.Health(), Engine::HealthStatus::kOk);
  ASSERT_TRUE(engine.StartWorker().ok());
  auto submitted = SubmitOne(engine, YesNoRequest(Tokens(64, 6)));
  ASSERT_TRUE(submitted.ok());
  auto result = submitted.value().future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("watchdog"), std::string::npos);
  // Delivery-level only: the wedged lane eventually finishes and the
  // request still counts as completed, so terminal accounting balances.
  engine.StopWorker();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.watchdog_stalls, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(Terminal(stats), stats.submitted);
  // Degraded is sticky: the incident stays visible after recovery.
  EXPECT_EQ(engine.Health(), Engine::HealthStatus::kDegraded);
}

TEST(ChaosDegradeTest, ShedHysteresisRejectsAboveHighUntilDrainedBelowLow) {
  EngineOptions options = TinyChaosOptions();
  options.shed_high_watermark = 4;  // low defaults to high/2 = 2
  Engine engine(options);
  // A stopped runtime keeps the queue depth exact: nothing drains between
  // submissions, so the watermark arithmetic is deterministic.
  Backlog backlog(engine);
  int accepted = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    auto id = backlog.Submit(YesNoRequest(Tokens(32, 100 + i)));
    if (id.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(engine.Health(), Engine::HealthStatus::kOverloaded);
  auto stats = engine.stats();
  // Shed requests were never admitted: they are absent from `submitted`
  // (and from every terminal bucket), counted only in `shed`.
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.shed, 6);

  auto responses = backlog.Drain();
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(responses.value().size(), 4u);
  // Drained below the low watermark: shedding disengages and new
  // submissions are welcome again.
  EXPECT_EQ(engine.Health(), Engine::HealthStatus::kOk);
  EXPECT_TRUE(backlog.Submit(YesNoRequest(Tokens(32, 200))).ok());
  stats = engine.stats();
  EXPECT_EQ(Terminal(stats) + 1, stats.submitted);  // one still queued
}

// ------------------------------------------------ seeded chaos schedules

// Replays one seeded schedule against a concurrent engine under client
// pressure and checks the invariants that must hold under ANY fault
// sequence: every future resolves exactly once, terminal accounting
// balances, the cache holds no orphaned payload or leaked block
// (Engine::CheckInvariants), and the process neither crashes nor wedges.
void RunSeededSchedule(const std::string& schedule) {
  SCOPED_TRACE(schedule);
  FaultScope scope(schedule);
  EngineOptions options = TinyChaosOptions();
  options.max_concurrent_requests = 4;
  options.max_batch_size = 2;
  options.cache_budget_tokens = 256;  // small: keeps eviction pressure on
  Engine engine(options);
  ASSERT_TRUE(engine.StartWorker().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::mutex mu;
  std::vector<Engine::ResponseFuture> futures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&engine, &mu, &futures, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int64_t n = 48 + 16 * ((c + i) % 4);
        auto submitted = SubmitOne(
            engine, YesNoRequest(Tokens(n, static_cast<uint64_t>(c * 100 + i)), c));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        futures.push_back(std::move(submitted.value().future));
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  ASSERT_EQ(futures.size(), static_cast<size_t>(kClients * kPerClient));

  // Every promise must resolve — a lost completion would hang here (and the
  // per-test ctest timeout would flag it). A refused acquisition only runs
  // its member cold, so only an activation-arena fault may fail a request.
  const bool arena_faults = schedule.find(fault::kAllocActivation) != std::string::npos;
  int ok_count = 0;
  int failed_count = 0;
  for (auto& future : futures) {
    auto result = future.get();
    if (result.ok()) {
      ++ok_count;
    } else {
      EXPECT_TRUE(arena_faults) << result.status().ToString();
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << result.status().ToString();
      ++failed_count;
    }
  }
  engine.StopWorker();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, ok_count);
  EXPECT_EQ(stats.failed, failed_count);
  EXPECT_EQ(Terminal(stats), stats.submitted) << "terminal accounting must balance";
  // The schedule actually did something: this was not a no-fault run.
  EXPECT_GT(stats.faults_injected, 0);
  EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
}

TEST(ChaosScheduleTest, SeededKvAndCacheFaultsKeepInvariants) {
  RunSeededSchedule("seed=1;alloc.kv_block=p0.2;cache.force_miss=p0.3");
}

TEST(ChaosScheduleTest, SeededActivationAndOffloadFaultsKeepInvariants) {
  RunSeededSchedule("seed=2;alloc.activation=@3,7");
}

TEST(ChaosScheduleTest, SeededMixedEveryNthFaultsKeepInvariants) {
  RunSeededSchedule("seed=3;alloc.kv_block=n5;cache.force_miss=n2");
}

TEST(ChaosScheduleTest, InjectionDisabledIsBitIdenticalAndHealthy) {
  // The robustness machinery armed but NO schedule installed: logits must
  // be bitwise identical to a plain engine, health must read ok, and the
  // injector must have stayed silent — the fault layer is zero-cost off.
  FaultInjector::Global().Clear();
  const auto tokens = Tokens(128, 7);
  std::vector<TokenProbability> golden;
  {
    Engine plain(TinyChaosOptions());
    auto response = plain.ScoreSync(YesNoRequest(tokens));
    ASSERT_TRUE(response.ok());
    golden = response.value().probabilities;
  }
  EngineOptions options = TinyChaosOptions();
  options.shed_high_watermark = 100;
  options.watchdog_timeout_ms = 10'000;
  Engine armed(options);
  ASSERT_TRUE(armed.StartWorker().ok());
  auto submitted = SubmitOne(armed, YesNoRequest(tokens));
  ASSERT_TRUE(submitted.ok());
  auto response = submitted.value().future.get();
  armed.StopWorker();
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(SameBits(golden, response.value().probabilities));
  EXPECT_EQ(armed.Health(), Engine::HealthStatus::kOk);
  EXPECT_EQ(armed.stats().faults_injected, 0);
}

// ---------------------------------------- evict→recompute round trip

TEST(ChaosOffloadTest, EvictReloadRoundTripSurvivesFaultSchedules) {
  // The one-tier cycle — each profile's insertion evicts the other from the
  // radix tree, and its next request recomputes it — driven through seeded
  // schedules that refuse block reservations and force cache misses. These
  // sites may only degrade (run cold, recompute), never fail a request or
  // change a bit of output.
  EngineOptions options = TinyChaosOptions();
  options.cache_budget_tokens = 64;  // one profile: B's arrival evicts A

  // Cold references: each profile scored by a fresh engine.
  FaultInjector::Global().Clear();
  struct Profile {
    int64_t user;
    std::vector<int32_t> tokens;
    std::vector<TokenProbability> cold;
  };
  std::vector<Profile> profiles = {{1, Tokens(64, 61), {}}, {2, Tokens(64, 62), {}}};
  for (Profile& profile : profiles) {
    Engine engine(options);
    auto response = engine.ScoreSync(YesNoRequest(profile.tokens, profile.user));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    profile.cold = response.value().probabilities;
  }

  // A, B, A, B, A, B fault-free, then under schedules covering every
  // trigger type at the remaining cache boundaries. One refused block runs
  // the whole four-block acquisition cold, so a per-block p0.1 still lets
  // most acquisitions insert and evict.
  for (const char* schedule :
       {"", "seed=11;alloc.kv_block=p0.1;cache.force_miss=p0.3",
        "seed=12;alloc.kv_block=x1;cache.force_miss=n2",
        "seed=13;cache.force_miss=x1;alloc.kv_block=@2"}) {
    SCOPED_TRACE(schedule);
    FaultScope scope(schedule);
    Engine engine(options);
    for (int round = 0; round < 3; ++round) {
      for (const Profile& profile : profiles) {
        auto response = engine.ScoreSync(YesNoRequest(profile.tokens, profile.user));
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_TRUE(SameBits(profile.cold, response.value().probabilities))
            << "round " << round << " user " << profile.user;
      }
    }
    const auto stats = engine.stats();
    EXPECT_GT(stats.cache.evictions, 0);
    EXPECT_EQ(stats.faults_injected > 0, *schedule != '\0');
    EXPECT_TRUE(engine.CheckInvariants().ok()) << engine.CheckInvariants().ToString();
  }
}

// ----------------------------- facade retry policy (ISSUE 6 satellite)

TEST(ChaosClientTest, RetryPolicyAbsorbsTransientFault) {
  // The first activation allocation fails (injected). Without a policy the
  // failure surfaces; with one, the blocking call transparently re-submits
  // and the caller never sees the fault.
  std::vector<int32_t> tokens;
  for (int i = 0; i < 48; ++i) {
    tokens.push_back((i * 13 + 5) % 200 + 1);
  }
  {
    FaultScope scope("alloc.activation=@1");
    ClientOptions options;
    options.model = "tiny";
    Client client(options);  // default policy: fail fast
    const ScoreResult result = client.Score(tokens, {10, 20});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error_code, "resource_exhausted");
    EXPECT_EQ(client.Stats().client_retries, 0);
  }
  {
    FaultScope scope("alloc.activation=@1");
    ClientOptions options;
    options.model = "tiny";
    options.retry.max_retries = 2;
    options.retry.initial_backoff_ms = 1;
    Client client(options);
    const ScoreResult result = client.Score(tokens, {10, 20});
    EXPECT_TRUE(result.ok) << result.error_code << ": " << result.error_message;
    EXPECT_EQ(client.Stats().client_retries, 1);
  }
}

// ----------------------------------- HTTP socket faults (ISSUE 6 satellite)

// Minimal blocking client for the loopback chaos test.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendRaw(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Reads exactly one Content-Length-framed response from `fd`.
std::string ReadFramedResponse(int fd) {
  std::string raw;
  char buffer[2048];
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  while (true) {
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t pos = raw.find("Content-Length: ");
        if (pos != std::string::npos && pos < header_end) {
          content_length = std::stoul(raw.substr(pos + 16));
        }
      }
    }
    if (header_end != std::string::npos &&
        raw.size() >= header_end + 4 + content_length) {
      return raw.substr(0, header_end + 4 + content_length);
    }
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      return raw;
    }
    raw.append(buffer, static_cast<size_t>(n));
  }
}

TEST(ChaosHttpTest, KeepAliveFramingSurvivesShortWritesAndEintr) {
  // Most send() calls are clamped to ONE byte (socket.short_write=p0.8) and
  // sporadic recv/send attempts observe a simulated EINTR — the pre-fix
  // loops would have truncated the framed response or dropped the
  // connection mid-request. Both responses must arrive byte-exact on one
  // keep-alive connection.
  FaultScope scope(
      "seed=11;socket.short_write=p0.8;socket.recv=n7;socket.send=@2,9");
  const std::string body(4000, 'x');
  HttpServer server([&body](const HttpRequest& request) {
    HttpResponse response;
    response.body = "{\"path\":\"" + request.path + "\",\"fill\":\"" + body + "\"}";
    return response;
  });
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  const int fd = ConnectLoopback(server.port());
  for (const std::string path : {"/first", "/second"}) {
    SendRaw(fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n"
                "Connection: keep-alive\r\n\r\n");
    const std::string response = ReadFramedResponse(fd);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"path\":\"" + path + "\""), std::string::npos);
    EXPECT_NE(response.find(body), std::string::npos)
        << "framed body truncated at " << response.size() << " bytes";
  }
  ::close(fd);
  server.Stop();
  // The short-write site genuinely exercised the continuation path.
  const auto stats = FaultInjector::Global().SiteStats();
  EXPECT_GT(stats.at(fault::kSocketShortWrite).fires, 0);
}

}  // namespace
}  // namespace prefillonly
