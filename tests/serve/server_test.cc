// Online serving tier: microbatched queue semantics (size/deadline flush,
// unified k contract, drain on stop), bitwise parity with the serial
// engine per snapshot, non-blocking snapshot swaps with zero dropped in-flight
// requests, and a multi-producer hammer (run under TSan by check.sh).
#include "serve/server.h"

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "gtest/gtest.h"
#include "serve/recommender.h"
#include "serve/snapshot.h"

namespace darec::serve {
namespace {

/// A moderately-sized random world so batches and rankings are non-trivial:
/// 40 users x 60 items, d=8, every user with a few training interactions.
struct Fixture {
  Fixture() {
    core::Rng rng(5);
    std::vector<data::Interaction> interactions;
    for (int64_t u = 0; u < 40; ++u) {
      for (int64_t n = 0; n < 4; ++n) {
        interactions.push_back({u, rng.UniformInt(60)});
      }
    }
    auto ds = data::Dataset::Create("server-test", 40, 60, interactions,
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

  std::shared_ptr<const ModelSnapshot> Snapshot(uint64_t version = 0) const {
    auto snapshot = ModelSnapshot::Create(embeddings, dataset.get(),
                                          /*build_int8=*/false, version);
    DARE_CHECK(snapshot.ok()) << snapshot.status().ToString();
    return *snapshot;
  }

  /// Serial fp32 reference for (user, k) — what every queued fp32 result
  /// must match bitwise.
  std::vector<ScoredItem> Reference(int64_t user, int64_t k) const {
    auto rec = Recommender::Create(embeddings, dataset.get());
    DARE_CHECK(rec.ok());
    auto list = rec->RecommendTopK(user, k);
    DARE_CHECK(list.ok());
    return *list;
  }

  std::unique_ptr<data::Dataset> dataset;
  tensor::Matrix embeddings;
};

void ExpectBitwiseEqual(const std::vector<ScoredItem>& got,
                        const std::vector<ScoredItem>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].item, want[i].item) << what << " rank " << i;
    ASSERT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

TEST(ServerTest, DeadlineFlushAnswersPartialBatchBitwiseEqualToSerial) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 1000;          // size trigger unreachable
  options.flush_deadline_us = 2000;  // deadline does the flushing
  Server server(f.Snapshot(), options);
  auto fut = server.SubmitTopK(3, 10);
  auto result = fut.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBitwiseEqual(result->items, f.Reference(3, 10), "deadline flush");
  EXPECT_GE(server.stats().deadline_flushes, 1);
}

TEST(ServerTest, SizeFlushFiresBeforeDeadline) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 4;
  options.flush_deadline_us = 60'000'000;  // a minute: only size can fire
  Server server(f.Snapshot(), options);
  std::vector<std::future<core::StatusOr<TopKResult>>> futures;
  for (int64_t u = 0; u < 4; ++u) futures.push_back(server.SubmitTopK(u, 5));
  for (int64_t u = 0; u < 4; ++u) {
    auto result = futures[static_cast<size_t>(u)].get();
    ASSERT_TRUE(result.ok());
    ExpectBitwiseEqual(result->items, f.Reference(u, 5),
                       "size flush user " + std::to_string(u));
  }
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.size_flushes, 1);
  EXPECT_EQ(stats.completed, 4);
}

TEST(ServerTest, MixedKInOneBatchEachGetsItsOwnPrefix) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 3;
  options.flush_deadline_us = 60'000'000;
  Server server(f.Snapshot(), options);
  auto f1 = server.SubmitTopK(1, 3);
  auto f2 = server.SubmitTopK(2, 17);
  auto f3 = server.SubmitTopK(1, 8);  // duplicate user, different k
  auto r1 = f1.get();
  auto r2 = f2.get();
  auto r3 = f3.get();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  ExpectBitwiseEqual(r1->items, f.Reference(1, 3), "k=3");
  ExpectBitwiseEqual(r2->items, f.Reference(2, 17), "k=17");
  ExpectBitwiseEqual(r3->items, f.Reference(1, 8), "k=8");
}

TEST(ServerTest, UnifiedKContract) {
  Fixture f;
  Server server(f.Snapshot(), ServerOptions{});
  // Non-positive k fails immediately (InvalidArgument), never enqueued.
  auto bad = server.SubmitTopK(0, 0).get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().submitted, 0);
  // Oversized k clamps to the eligible count, like the Recommender.
  auto big = server.SubmitTopK(0, 1000).get();
  ASSERT_TRUE(big.ok());
  ExpectBitwiseEqual(big->items, f.Reference(0, 1000), "clamped k");
  // Bad user ids complete with OutOfRange instead of poisoning the batch.
  auto oob = server.SubmitTopK(40, 5).get();
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code(), core::StatusCode::kOutOfRange);
}

TEST(ServerTest, StopDrainsEveryPendingRequest) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 1000;
  options.flush_deadline_us = 60'000'000;  // nothing flushes on its own
  auto server = std::make_unique<Server>(f.Snapshot(), options);
  std::vector<std::future<core::StatusOr<TopKResult>>> futures;
  for (int64_t u = 0; u < 25; ++u) futures.push_back(server->SubmitTopK(u, 7));
  server->Stop();
  for (int64_t u = 0; u < 25; ++u) {
    auto result = futures[static_cast<size_t>(u)].get();
    ASSERT_TRUE(result.ok()) << "request " << u << " dropped on Stop";
    ExpectBitwiseEqual(result->items, f.Reference(u, 7),
                       "drained user " + std::to_string(u));
  }
  EXPECT_GE(server->stats().drain_flushes, 1);
  // Post-stop submits fail fast.
  auto late = server->SubmitTopK(0, 5).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), core::StatusCode::kFailedPrecondition);
}

TEST(ServerTest, SnapshotSwapKeepsResultsBitwiseIdenticalForSameContent) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 8;
  options.flush_deadline_us = 500;
  Server server(f.Snapshot(/*version=*/1), options);
  // Swap in a freshly-built snapshot of the SAME embeddings mid-stream:
  // results must stay bitwise identical whichever snapshot answered.
  std::vector<std::future<core::StatusOr<TopKResult>>> futures;
  for (int64_t i = 0; i < 120; ++i) {
    futures.push_back(server.SubmitTopK(i % 40, 10));
    if (i == 40) server.ReloadModel(f.Snapshot(/*version=*/2));
  }
  bool saw_v2 = false;
  for (int64_t i = 0; i < 120; ++i) {
    auto result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok());
    saw_v2 |= result->snapshot_version == 2;
    ExpectBitwiseEqual(result->items, f.Reference(i % 40, 10),
                       "request " + std::to_string(i));
  }
  EXPECT_TRUE(saw_v2) << "reload never took effect";
  EXPECT_EQ(server.stats().reloads, 1);
}

/// int8 snapshots were removed; the factories keep their bool parameter
/// only for positional callers and reject `true` instead of ignoring it.
TEST(ServerTest, SnapshotFactoriesRejectInt8) {
  Fixture f;
  auto created =
      ModelSnapshot::Create(f.embeddings, f.dataset.get(), /*build_int8=*/true);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("int8"), std::string::npos);

  const data::ResidentInteractions store =
      data::ResidentInteractions::FromTrainSplit(*f.dataset);
  auto from_store =
      ModelSnapshot::CreateFromStore(f.embeddings, store, /*build_int8=*/true);
  ASSERT_FALSE(from_store.ok());
  EXPECT_EQ(from_store.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      ModelSnapshot::CreateFromStore(f.embeddings, store, /*build_int8=*/false)
          .ok());
}

/// The concurrency gate: several producer threads hammer the queue while
/// the model is reloaded mid-flight (alternating between two snapshots of
/// identical content). Every request must complete, and every result must
/// match the serial engine bitwise. Run under TSan by scripts/check.sh.
TEST(ServerTest, MultiProducerHammerWithMidFlightReloads) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 32;
  options.flush_deadline_us = 200;
  Server server(f.Snapshot(1), options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  // Precompute references once (serial, before the hammer).
  std::vector<std::vector<ScoredItem>> reference;
  for (int64_t u = 0; u < 40; ++u) {
    reference.push_back(f.Reference(u, 1 + (u % 13)));
  }

  std::atomic<int> completed{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      core::Rng rng(100 + t);
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t user = rng.UniformInt(40);
        const int64_t k = 1 + (user % 13);
        auto result = server.SubmitTopK(user, k).get();
        if (!result.ok()) continue;  // should not happen; counted below
        const auto& want = reference[static_cast<size_t>(user)];
        bool equal = result->items.size() == want.size();
        for (size_t r = 0; equal && r < want.size(); ++r) {
          equal = result->items[r].item == want[r].item &&
                  result->items[r].score == want[r].score;
        }
        if (!equal) mismatches.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  }
  // Reload repeatedly while the producers are in flight.
  std::thread reloader([&] {
    for (uint64_t v = 2; v <= 9; ++v) {
      server.ReloadModel(f.Snapshot(v));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& p : producers) p.join();
  reloader.join();
  server.Stop();

  EXPECT_EQ(completed.load(), kProducers * kPerProducer)
      << "some requests never completed";
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.reloads, 8);
  EXPECT_GT(stats.max_batch_observed, 1) << "queue never coalesced a batch";
}

/// Stop() races live submits carrying a mix of deadlines while the queue is
/// bounded: every future must complete exactly once, and client-observed
/// outcomes must reconcile exactly with the server's own counters —
/// completed + failed == submitted, with sheds and admission-expired
/// deadlines accounted separately. Runs under TSan in check.sh.
TEST(ServerTest, StopVsSubmitHammerWithDeadlines) {
  Fixture f;
  ServerOptions options;
  options.max_batch = 16;
  options.flush_deadline_us = 200;
  options.max_queue = 32;
  options.overload.k_degraded = 3;
  Server server(f.Snapshot(1), options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  // Client-side tally of every possible outcome.
  std::atomic<int> ok{0};
  std::atomic<int> deadline{0};
  std::atomic<int> shed{0};
  std::atomic<int> stopped{0};
  std::atomic<int> other{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      core::Rng rng(200 + t);
      const int64_t timeouts[] = {0, 50, 1000, 5000};
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t user = rng.UniformInt(40);
        const int64_t timeout_us = timeouts[rng.UniformInt(4)];
        auto result = server.SubmitTopK(user, 1 + (user % 13), timeout_us).get();
        if (result.ok()) {
          ok.fetch_add(1);
          continue;
        }
        switch (result.status().code()) {
          case core::StatusCode::kDeadlineExceeded: deadline.fetch_add(1); break;
          case core::StatusCode::kResourceExhausted: shed.fetch_add(1); break;
          case core::StatusCode::kFailedPrecondition: stopped.fetch_add(1); break;
          default: other.fetch_add(1); break;
        }
      }
    });
  }
  // Stop mid-stream: producers past the cutoff observe FailedPrecondition.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  for (auto& p : producers) p.join();

  // Every request completed exactly once, with a recognized outcome.
  EXPECT_EQ(ok + deadline + shed + stopped, kProducers * kPerProducer);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(stopped.load(), 0) << "Stop() landed after all submits";

  // Server-side accounting closes: everything admitted was fulfilled.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.shed_admission, shed.load());
  // Client-observed DeadlineExceeded = admission-expired (not submitted)
  // + expired at assembly / in flush (counted in failed).
  EXPECT_EQ(stats.shed_deadline, deadline.load());
  EXPECT_GT(stats.peak_pending, 0);
  EXPECT_LE(stats.peak_pending, options.max_queue);
}

}  // namespace
}  // namespace darec::serve
