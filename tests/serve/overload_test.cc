// Overload protection for the serving tier (DESIGN.md §13): the pure
// ladder transition function, bounded admission (ResourceExhausted at
// max_queue), per-request deadlines enforced at admission / batch assembly /
// in-flush, deterministic degraded flushes (k clamp, bitwise against the
// engine), recovery hysteresis, and the client-side
// SubmitWithRetry backoff loop. Every scenario is driven by fail-point
// injected slow flushes — wall-clock sleeps appear only as generous margins
// (100x+) around the injected stall, never as assertions.
#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/backoff.h"
#include "core/failpoint.h"
#include "core/rng.h"
#include "gtest/gtest.h"
#include "serve/recommender.h"
#include "serve/server.h"
#include "serve/server_overload.h"
#include "serve/snapshot.h"

namespace darec::serve {
namespace {

/// Same world as server_test: 40 users x 60 items, d=8, a few training
/// interactions per user.
struct Fixture {
  Fixture() {
    core::Rng rng(5);
    std::vector<data::Interaction> interactions;
    for (int64_t u = 0; u < 40; ++u) {
      for (int64_t n = 0; n < 4; ++n) {
        interactions.push_back({u, rng.UniformInt(60)});
      }
    }
    auto ds = data::Dataset::Create("overload-test", 40, 60, interactions,
                                    data::SplitRatio{1.0, 0.0, 0.0}, rng);
    DARE_CHECK(ds.ok());
    dataset = std::make_unique<data::Dataset>(std::move(ds).value());
    embeddings = tensor::Matrix(100, 8);
    for (int64_t r = 0; r < 100; ++r) {
      for (int64_t c = 0; c < 8; ++c) {
        embeddings(r, c) = rng.Uniform(-1.0f, 1.0f);
      }
    }
  }

  std::shared_ptr<const ModelSnapshot> Snapshot() const {
    auto snapshot = ModelSnapshot::Create(embeddings, dataset.get());
    DARE_CHECK(snapshot.ok()) << snapshot.status().ToString();
    return *snapshot;
  }

  /// Engine reference at k — what a served result (degraded ones at the
  /// clamped k) must match bitwise: both paths are deterministic.
  std::vector<topk::ScoredItem> EngineReference(const ModelSnapshot& snapshot,
                                                int64_t user, int64_t k) const {
    const topk::SeenItemsFn seen = [this](int64_t u) {
      return &dataset->TrainItemsOfUser(u);
    };
    return snapshot.engine()
        .TopK({user}, k, seen, topk::MaskMode::kDrop)
        .front();
  }

  std::unique_ptr<data::Dataset> dataset;
  tensor::Matrix embeddings;
};

void ExpectBitwiseEqual(const std::vector<topk::ScoredItem>& got,
                        const std::vector<topk::ScoredItem>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].item, want[i].item) << what << " rank " << i;
    ASSERT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// Disarms fail points armed by a test even when it exits early.
struct FailPointGuard {
  ~FailPointGuard() { core::FailPoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// The pure transition function: every decision is state x depth -> state.
// ---------------------------------------------------------------------------

OverloadOptions LadderOptions() {
  OverloadOptions o;
  o.degrade_enter = 8;
  o.degrade_exit = 2;
  o.shed_enter = 16;
  o.shed_exit = 4;
  return o;
}

TEST(LoadLadderTest, WalksUpAndDownWithHysteresis) {
  const OverloadOptions o = LadderOptions();
  using S = LoadState;
  // Healthy holds below degrade_enter.
  EXPECT_EQ(NextLoadState(S::kHealthy, 0, o), S::kHealthy);
  EXPECT_EQ(NextLoadState(S::kHealthy, 7, o), S::kHealthy);
  // Crossing degrade_enter degrades; crossing shed_enter sheds (a spike
  // jumps straight there).
  EXPECT_EQ(NextLoadState(S::kHealthy, 8, o), S::kDegraded);
  EXPECT_EQ(NextLoadState(S::kHealthy, 16, o), S::kShedding);
  // Hysteresis: Degraded holds anywhere in (degrade_exit, shed_enter).
  EXPECT_EQ(NextLoadState(S::kDegraded, 7, o), S::kDegraded);
  EXPECT_EQ(NextLoadState(S::kDegraded, 3, o), S::kDegraded);
  EXPECT_EQ(NextLoadState(S::kDegraded, 2, o), S::kHealthy);
  EXPECT_EQ(NextLoadState(S::kDegraded, 16, o), S::kShedding);
  // Shedding holds above shed_exit; recovery descends through the bands.
  EXPECT_EQ(NextLoadState(S::kShedding, 15, o), S::kShedding);
  EXPECT_EQ(NextLoadState(S::kShedding, 5, o), S::kShedding);
  EXPECT_EQ(NextLoadState(S::kShedding, 4, o), S::kDegraded);
  EXPECT_EQ(NextLoadState(S::kShedding, 2, o), S::kHealthy);
}

TEST(LoadLadderTest, DisabledLadderNeverLeavesHealthy) {
  OverloadOptions o = LadderOptions();
  o.enabled = false;
  for (int64_t depth : {0, 10, 100, 1000000}) {
    EXPECT_EQ(NextLoadState(LoadState::kHealthy, depth, o),
              LoadState::kHealthy);
    EXPECT_EQ(NextLoadState(LoadState::kShedding, depth, o),
              LoadState::kHealthy);
  }
}

TEST(LoadLadderTest, ControllerCountsTransitions) {
  LoadController controller(LadderOptions());
  // healthy -> degraded -> shedding -> degraded -> healthy, with holds.
  EXPECT_EQ(controller.Observe(3), LoadState::kHealthy);
  EXPECT_EQ(controller.Observe(9), LoadState::kDegraded);
  EXPECT_EQ(controller.Observe(12), LoadState::kDegraded);  // hold
  EXPECT_EQ(controller.Observe(20), LoadState::kShedding);
  EXPECT_EQ(controller.Observe(10), LoadState::kShedding);  // hold
  EXPECT_EQ(controller.Observe(4), LoadState::kDegraded);
  EXPECT_EQ(controller.Observe(1), LoadState::kHealthy);
  EXPECT_EQ(controller.to_degraded(), 2);  // entered from both sides
  EXPECT_EQ(controller.to_shedding(), 1);
  EXPECT_EQ(controller.to_healthy(), 1);
  EXPECT_EQ(controller.state(), LoadState::kHealthy);
}

// ---------------------------------------------------------------------------
// Option validation.
// ---------------------------------------------------------------------------

TEST(OverloadOptionsTest, WatermarksDeriveFromMaxQueue) {
  Fixture f;
  ServerOptions options;
  options.max_queue = 1024;
  Server server(f.Snapshot(), options);
  const OverloadOptions& o = server.options().overload;
  EXPECT_TRUE(o.enabled);
  EXPECT_EQ(o.degrade_enter, 512);
  EXPECT_EQ(o.degrade_exit, 128);
  EXPECT_EQ(o.shed_enter, 768);
  EXPECT_EQ(o.shed_exit, 256);
}

TEST(OverloadOptionsTest, UnboundedQueueWithoutWatermarksDisablesLadder) {
  Fixture f;
  ServerOptions options;
  options.max_queue = 0;  // unbounded
  Server server(f.Snapshot(), options);
  EXPECT_FALSE(server.options().overload.enabled);
}

TEST(OverloadOptionsTest, OutOfRangeScalarsAreClamped) {
  Fixture f;
  ServerOptions options;
  options.max_batch = -3;
  options.flush_deadline_us = -100;
  Server server(f.Snapshot(), options);
  EXPECT_EQ(server.options().max_batch, 1);
  EXPECT_EQ(server.options().flush_deadline_us, 0);
}

TEST(OverloadOptionsDeathTest, QueueSmallerThanBatchIsRejected) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 64;
  options.max_queue = 16;
  EXPECT_DEATH(Server(f.Snapshot(), options), "max_queue");
}

TEST(OverloadOptionsDeathTest, InvertedWatermarksAreRejected) {
  Fixture f;
  ServerOptions options;
  options.overload.degrade_enter = 10;
  options.overload.degrade_exit = 20;  // exit above enter: no hysteresis band
  options.overload.shed_enter = 30;
  options.overload.shed_exit = 25;
  EXPECT_DEATH(Server(f.Snapshot(), options), "hysteresis");
}

// ---------------------------------------------------------------------------
// Bounded admission and the pending()/peak_pending gauges.
// ---------------------------------------------------------------------------

TEST(OverloadTest, AdmissionShedsAtMaxQueueAndPendingObservesBacklog) {
  Fixture f;
  FailPointGuard guard;
  ServerOptions options;
  options.max_batch = 8;
  options.flush_deadline_us = 60'000'000;  // only the size trigger flushes
  options.max_queue = 8;
  options.overload.enabled = false;  // isolate the hard bound
  Server server(f.Snapshot(), options);

  // The first (size-triggered) flush stalls 300ms holding its batch of 8;
  // the refill below lands in microseconds while the queue is empty, so it
  // deterministically fills to max_queue without tripping another flush.
  core::FailPoint::Arm("serve.slow_flush", /*arg=*/300'000, /*fires=*/1);
  std::vector<std::future<core::StatusOr<TopKResult>>> futures;
  for (int64_t i = 0; i < 8; ++i) futures.push_back(server.SubmitTopK(i, 5));
  // Wait (bounded, well inside the 300ms stall) for the flusher to claim
  // the first batch, then refill the now-empty queue to the brim.
  for (int spins = 0; server.pending() > 0 && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server.pending(), 0) << "flusher never claimed the first batch";
  for (int64_t i = 0; i < 8; ++i) futures.push_back(server.SubmitTopK(i, 5));
  EXPECT_EQ(server.pending(), 8);
  auto shed = server.SubmitTopK(0, 5).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::StatusCode::kResourceExhausted);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_admission, 1);
  EXPECT_EQ(stats.submitted, 16);  // the shed request never counts
  EXPECT_EQ(stats.peak_pending, 8);
  server.Stop();  // drain completes every held future
  for (auto& fut : futures) ASSERT_TRUE(fut.get().ok());
  EXPECT_EQ(server.pending(), 0);
}

// ---------------------------------------------------------------------------
// Deadlines: admission, batch assembly, and in-flush enforcement.
// ---------------------------------------------------------------------------

TEST(OverloadTest, SpentBudgetExpiresAtAdmissionWithoutEnqueueing) {
  Fixture f;
  Server server(f.Snapshot(), ServerOptions{});
  auto result = server.SubmitTopK(0, 5, /*timeout_us=*/-1).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.submitted, 0);
}

TEST(OverloadTest, RequestExpiresAtAssemblyWhileAnEarlierFlushStalls) {
  Fixture f;
  FailPointGuard guard;
  ServerOptions options;
  options.max_batch = 1;
  options.flush_deadline_us = 0;
  options.overload.enabled = false;
  Server server(f.Snapshot(), options);
  // The first flush stalls 300ms; r2's 1ms deadline expires ~300x over
  // while it waits, so the flusher fails it at assembly without scoring.
  core::FailPoint::Arm("serve.slow_flush", /*arg=*/300'000, /*fires=*/1);
  auto r1 = server.SubmitTopK(0, 5);
  auto r2 = server.SubmitTopK(1, 5, /*timeout_us=*/1000);
  ASSERT_TRUE(r1.get().ok());
  auto expired = r2.get();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), core::StatusCode::kDeadlineExceeded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);  // r2 never reached the engine
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.failed, 1);
}

TEST(OverloadTest, RequestExpiresInsideAStalledFlush) {
  Fixture f;
  FailPointGuard guard;
  ServerOptions options;
  options.max_batch = 1;
  options.flush_deadline_us = 0;
  options.overload.enabled = false;
  Server server(f.Snapshot(), options);
  // The request's own flush stalls 400ms against a 20ms budget: the
  // post-stall re-check fails it before the GEMM.
  core::FailPoint::Arm("serve.slow_flush", /*arg=*/400'000, /*fires=*/1);
  auto result = server.SubmitTopK(0, 5, /*timeout_us=*/20'000).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_GE(stats.flushes, 1);  // the flush ran; the request was not scored
}

TEST(OverloadTest, FlushFailFailPointFailsLiveRequestsWithInternal) {
  Fixture f;
  FailPointGuard guard;
  ServerOptions options;
  options.max_batch = 1;
  options.flush_deadline_us = 0;
  Server server(f.Snapshot(), options);
  core::FailPoint::Arm("serve.flush_fail", /*arg=*/0, /*fires=*/1);
  auto failed = server.SubmitTopK(0, 5).get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), core::StatusCode::kInternal);
  EXPECT_EQ(server.stats().flush_failures, 1);
  // The fail point auto-disarmed after one fire: the next request is fine.
  auto ok = server.SubmitTopK(0, 5).get();
  ASSERT_TRUE(ok.ok());
}

// ---------------------------------------------------------------------------
// The degradation ladder inside the server.
// ---------------------------------------------------------------------------

/// Degraded flushes clamp k to k_degraded and nothing else: results are
/// bitwise the fp32 engine's list at the clamped k (a prefix of the Healthy
/// list), and the ladder recovers to full-k Healthy once drained.
TEST(OverloadTest, DegradedFlushClampsKBitwiseAndRecovers) {
  Fixture f;
  FailPointGuard guard;
  auto snapshot = f.Snapshot();
  ServerOptions options;
  options.max_batch = 4;
  options.flush_deadline_us = 0;
  options.max_queue = 64;
  options.overload.degrade_enter = 2;
  options.overload.degrade_exit = 0;  // recover only on an empty queue
  options.overload.shed_enter = 50;
  options.overload.shed_exit = 10;
  options.overload.k_degraded = 3;
  Server server(snapshot, options);

  // Stall the first flush 400ms; everything submitted meanwhile piles up,
  // crossing degrade_enter=2 at admission. With degrade_exit=0 the ladder
  // cannot recover until the queue is observed empty, so every request not
  // in the stalled first batch (at most r0 + 3 fillers) drains Degraded.
  core::FailPoint::Arm("serve.slow_flush", /*arg=*/400'000, /*fires=*/1);
  auto r0 = server.SubmitTopK(0, 10);
  std::vector<std::future<core::StatusOr<TopKResult>>> fillers;
  for (int64_t u = 1; u <= 8; ++u) {
    fillers.push_back(server.SubmitTopK(u, 10));
  }
  (void)r0.get();  // healthy or degraded depending on first-batch timing
  for (size_t i = 0; i < fillers.size(); ++i) {
    auto result = fillers[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (i < 3) continue;  // f1..f3 may have ridden the first (stalled) batch
    const int64_t user = static_cast<int64_t>(i) + 1;
    ExpectBitwiseEqual(result->items, f.EngineReference(*snapshot, user, 3),
                       "degraded user " + std::to_string(user));
  }
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.to_degraded, 1);
  EXPECT_GE(stats.degraded_flushes, 1);

  // Recovery: with the queue drained, the next admission observes depth 0
  // and returns to Healthy — full k, bitwise equal to the serial path.
  auto probe = server.SubmitTopK(5, 10).get();
  ASSERT_TRUE(probe.ok());
  ExpectBitwiseEqual(probe->items, f.EngineReference(*snapshot, 5, 10),
                     "healthy probe after recovery");
  const ServerStats after = server.stats();
  EXPECT_GE(after.to_healthy, 1);
  EXPECT_EQ(after.load_state, LoadState::kHealthy);
}

/// Drives the full ladder: Healthy -> Degraded -> Shedding under a
/// fail-point-stalled flusher, sheds at admission while Shedding, then
/// recovers to Healthy once drained. No wall-clock assertions: the stall
/// dwarfs the submission burst by orders of magnitude.
TEST(OverloadTest, FullLadderWalkShedsAndRecovers) {
  Fixture f;
  FailPointGuard guard;
  auto snapshot = f.Snapshot();
  ServerOptions options;
  options.max_batch = 4;
  options.flush_deadline_us = 0;
  options.max_queue = 64;
  options.overload.degrade_enter = 8;
  options.overload.degrade_exit = 0;
  options.overload.shed_enter = 16;
  options.overload.shed_exit = 4;
  options.overload.k_degraded = 3;
  Server server(snapshot, options);

  core::FailPoint::Arm("serve.slow_flush", /*arg=*/500'000, /*fires=*/1);
  std::vector<std::future<core::StatusOr<TopKResult>>> admitted;
  admitted.push_back(server.SubmitTopK(0, 10));  // starts the stalled flush
  // Keep submitting until admission sheds: the queue crosses degrade_enter
  // then shed_enter long before the 500ms stall ends (the first flush can
  // consume at most max_batch=4 requests).
  int64_t sheds = 0;
  for (int64_t i = 1; i <= 40 && sheds == 0; ++i) {
    auto fut = server.SubmitTopK(i % 40, 10);
    // A shed future is ready immediately with ResourceExhausted.
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      auto result = fut.get();
      if (!result.ok() &&
          result.status().code() == core::StatusCode::kResourceExhausted) {
        ++sheds;
        continue;
      }
      // Not shed (e.g. an instant failure would be a bug): fall through to
      // tracking it like any admitted request.
      ADD_FAILURE() << "unexpected instant completion: "
                    << (result.ok() ? "OK" : result.status().ToString());
      continue;
    }
    admitted.push_back(std::move(fut));
  }
  EXPECT_EQ(sheds, 1) << "admission never shed while Shedding";
  {
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.to_degraded, 1);
    EXPECT_GE(stats.to_shedding, 1);
    EXPECT_EQ(stats.shed_admission, 1);
  }

  // Every admitted request drains to a result (Degraded settings, but
  // always answered).
  for (auto& fut : admitted) {
    auto result = fut.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // Recovery: first admission on the drained queue observes depth 0.
  auto probe = server.SubmitTopK(7, 10).get();
  ASSERT_TRUE(probe.ok());
  ExpectBitwiseEqual(probe->items,
                     f.EngineReference(*snapshot, 7, 10),
                     "post-recovery probe");
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.to_healthy, 1);
  EXPECT_EQ(stats.load_state, LoadState::kHealthy);
  EXPECT_GE(stats.degraded_flushes, 1);
}

// ---------------------------------------------------------------------------
// SubmitWithRetry: the client-side backoff loop.
// ---------------------------------------------------------------------------

TEST(OverloadTest, SubmitWithRetryRidesOutAdmissionShed) {
  Fixture f;
  FailPointGuard guard;
  ServerOptions options;
  options.max_batch = 4;
  options.flush_deadline_us = 0;
  options.max_queue = 8;
  options.overload.enabled = false;  // pure bounded-admission shedding
  Server server(f.Snapshot(), options);

  // Stall the first flush 500ms and fill the queue to the brim: direct
  // submits shed, but the retry loop outlives the stall and lands.
  core::FailPoint::Arm("serve.slow_flush", /*arg=*/500'000, /*fires=*/1);
  std::vector<std::future<core::StatusOr<TopKResult>>> admitted;
  admitted.push_back(server.SubmitTopK(0, 10));
  // Wait (bounded, well inside the stall) for the flusher to claim that
  // request: a flusher that wakes late would instead pop half of the full
  // queue below and let the first retry attempt in.
  for (int spins = 0; server.pending() > 0 && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server.pending(), 0) << "flusher never claimed the first batch";
  int64_t sheds = 0;
  for (int64_t i = 1; i <= 20 && sheds == 0; ++i) {
    auto fut = server.SubmitTopK(i % 40, 10);
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        !fut.get().ok()) {
      ++sheds;
      continue;
    }
    admitted.push_back(std::move(fut));
  }
  ASSERT_EQ(sheds, 1) << "queue never filled";

  core::BackoffOptions backoff_options;
  backoff_options.initial_us = 2000;
  backoff_options.multiplier = 2.0;
  backoff_options.max_us = 50'000;
  backoff_options.seed = 11;
  core::Backoff backoff(backoff_options);
  auto result = SubmitWithRetry(server, 9, 10, /*timeout_us=*/0, backoff,
                                /*max_attempts=*/60);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(backoff.attempts(), 1) << "first attempt should have shed";
  ExpectBitwiseEqual(
      result->items,
      f.EngineReference(*server.current_snapshot(), 9, 10),
      "retried request");
  for (auto& fut : admitted) ASSERT_TRUE(fut.get().ok());
}

TEST(OverloadTest, SubmitWithRetryDoesNotRetryNonRetryableFailures) {
  Fixture f;
  Server server(f.Snapshot(), ServerOptions{});
  core::Backoff backoff;
  // Spent budget: DeadlineExceeded at admission, returned without a retry.
  auto result = SubmitWithRetry(server, 0, 10, /*timeout_us=*/-1, backoff,
                                /*max_attempts=*/10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backoff.attempts(), 0);
}

}  // namespace
}  // namespace darec::serve
