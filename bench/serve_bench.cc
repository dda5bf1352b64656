// Online serving benchmark: the serve::Server microbatched queue against the
// single-request baseline (the seed's per-user scoring loop, frozen at the
// seed's -O2 — the same baseline convention as topk_bench/micro_kernels),
// under two load shapes:
//
//  - saturation: `producers` threads burst-submit `requests` top-K requests;
//    users/sec = requests / wall time. The headline gate: microbatched
//    throughput must be >= 5x the single-request baseline at saturation.
//  - poisson: open-loop arrivals at `qps` (exponential inter-arrival gaps,
//    precomputed), each request's latency measured from its SCHEDULED
//    arrival — so queueing delay from a slow server is charged to the
//    server, not hidden by a stalled submitter (no coordinated omission).
//    Reports p50/p95/p99.
//
// Modes:
//  - single_request:   seed per-request scoring loop, one request at a time
//  - queue_off_fp32:   serve::Server with max_batch=1 (engine, no batching)
//  - microbatch_fp32:  max_batch=64, 1ms deadline; a same-content snapshot
//                      swap happens mid-saturation
//  - overload:         open-loop Poisson at 2x the measured microbatch_fp32
//                      capacity, ladder_on (bounded queue + degradation
//                      ladder + 20ms request deadlines) vs ladder_off
//                      (unbounded queue, no protection): goodput, shed rate,
//                      served p99, and queue-depth samples — ladder_off's
//                      depth grows monotonically, ladder_on's stays bounded.
//
// The two closed-loop Server modes run with max_queue=0 (unbounded) and
// the ladder disabled: saturation deliberately bursts every request up
// front, which bounded admission would (correctly) shed.
//
// Parity gates (always on, including smoke):
//  - fp32 results — queue off, queue on at any batch mix, and across the
//    mid-run snapshot swap — are bitwise identical to serial
//    Recommender::RecommendTopK (which the seed loop also matches).
//
// Writes BENCH_serve.json.
//
// Usage: serve_bench [out=BENCH_serve.json] [dataset=amazon-book-small]
//                    [d=64] [k=10] [requests=20000] [producers=4]
//                    [qps=3000] [poisson_requests=4000] [smoke=0]
//
// smoke=1 shrinks every workload to a few hundred requests and skips the
// timing-based throughput gate (parity gates stay) — the CI crash/parity
// gate used by scripts/check.sh.
//
// overload_smoke=1 runs ONLY a deterministic ladder walk (Healthy →
// Degraded → Shedding → recovery) and exits: check.sh arms
// DAREC_FAILPOINTS=serve.slow_flush=...:1 so the first flush stalls and the
// queue deterministically climbs through every watermark.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/run_header.h"
#include "bench/seed_topk.h"
#include "core/check.h"
#include "core/config.h"
#include "core/failpoint.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "data/presets.h"
#include "serve/recommender.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tensor/init.h"

namespace {

using darec::core::Stopwatch;
using darec::serve::ModelSnapshot;
using darec::serve::Server;
using darec::serve::ServerOptions;
using darec::serve::TopKResult;
using darec::tensor::Matrix;
using darec::topk::ScoredItem;

/// The single-request baseline behind the same submit/future surface as
/// serve::Server: one worker thread answers one request at a time with the
/// frozen seed scoring loop (benchseed::RecommendTopK, seed -O2 flags).
class SeedServer {
 public:
  SeedServer(const Matrix& nodes, const darec::data::Dataset& dataset)
      : nodes_(nodes), dataset_(dataset) {
    worker_ = std::thread([this] { Loop(); });
  }
  ~SeedServer() { Stop(); }

  std::future<darec::core::StatusOr<TopKResult>> SubmitTopK(int64_t user,
                                                            int64_t k) {
    Request request;
    request.user = user;
    request.k = k;
    auto future = request.promise.get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(request));
    }
    cv_.notify_one();
    return future;
  }

  void ReloadModel(std::shared_ptr<const ModelSnapshot>) {}  // fixed model

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  darec::serve::ServerStats stats() const {
    darec::serve::ServerStats stats;
    stats.max_batch_observed = 1;
    return stats;
  }

 private:
  struct Request {
    int64_t user = 0;
    int64_t k = 0;
    std::promise<darec::core::StatusOr<TopKResult>> promise;
  };

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      Request request = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      const auto pairs = darec::benchseed::RecommendTopK(
          nodes_, dataset_, request.user, request.k);
      TopKResult result;
      result.items.reserve(pairs.size());
      for (const auto& [item, score] : pairs) {
        result.items.push_back({item, score});
      }
      request.promise.set_value(std::move(result));
      lock.lock();
    }
  }

  const Matrix& nodes_;
  const darec::data::Dataset& dataset_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::thread worker_;
};

struct PoissonReport {
  double offered_qps = 0.0;
  int64_t requests = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct ModeReport {
  std::string name;
  std::string detail;
  double saturation_users_per_sec = 0.0;
  int64_t max_batch_observed = 0;
  PoissonReport poisson;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       std::ceil(q * static_cast<double>(sorted.size())) - 1.0));
  return sorted[idx];
}

/// Burst-submits `num_requests` from `producers` threads (users round-robin),
/// waits for every future, and returns users/sec. Results are checked
/// bitwise against `reference`. When `swap_to` is non-null it is
/// ReloadModel'ed in around the halfway mark — an identical-content
/// snapshot, so the bitwise check also gates "results unchanged across a
/// swap, zero requests dropped".
template <typename ServerT>
double RunSaturation(ServerT& server, int64_t num_requests, int64_t num_users,
                     int64_t producers, int64_t k,
                     const std::vector<std::vector<ScoredItem>>& reference,
                     std::shared_ptr<const ModelSnapshot> swap_to) {
  std::vector<std::future<darec::core::StatusOr<TopKResult>>> futures(
      static_cast<size_t>(num_requests));

  Stopwatch sw;
  std::vector<std::thread> threads;
  std::atomic<int64_t> submitted{0};
  for (int64_t t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = t; i < num_requests; i += producers) {
        futures[static_cast<size_t>(i)] = server.SubmitTopK(i % num_users, k);
        if (submitted.fetch_add(1) == num_requests / 2 &&
            swap_to != nullptr) {
          server.ReloadModel(swap_to);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<TopKResult> results(static_cast<size_t>(num_requests));
  for (int64_t i = 0; i < num_requests; ++i) {
    auto result = futures[static_cast<size_t>(i)].get();
    DARE_CHECK(result.ok()) << "request " << i
                            << " failed: " << result.status().ToString();
    results[static_cast<size_t>(i)] = std::move(result).value();
  }
  const double seconds = sw.ElapsedSeconds();

  // Parity, outside the timed region.
  for (int64_t i = 0; i < num_requests; ++i) {
    const std::vector<ScoredItem>& got = results[static_cast<size_t>(i)].items;
    const std::vector<ScoredItem>& want =
        reference[static_cast<size_t>(i % num_users)];
    DARE_CHECK_EQ(got.size(), want.size())
        << "fp32 parity: list size diverged for request " << i;
    for (size_t r = 0; r < got.size(); ++r) {
      DARE_CHECK(got[r].item == want[r].item && got[r].score == want[r].score)
          << "fp32 parity: rank " << r << " diverged for request " << i
          << " (snapshot v" << results[static_cast<size_t>(i)].snapshot_version
          << ")";
    }
  }
  if (swap_to != nullptr) {
    bool saw_new = false;
    for (const TopKResult& r : results) {
      saw_new |= r.snapshot_version == swap_to->version();
    }
    DARE_CHECK(saw_new) << "mid-run snapshot swap never took effect";
  }
  return static_cast<double>(num_requests) / seconds;
}

/// Open-loop Poisson arrivals at `qps`: one submitter paces requests against
/// a precomputed schedule, a collector stamps completions in submission
/// order, latency = completion - SCHEDULED arrival (late submission counts
/// against the server too). Returns p50/p95/p99 over all requests.
template <typename ServerT>
PoissonReport RunPoisson(ServerT& server, int64_t num_users,
                         int64_t num_requests, double qps, int64_t k) {
  using Clock = std::chrono::steady_clock;

  // Exponential inter-arrival gaps, fixed seed: the schedule is part of the
  // workload definition, not a run-to-run variable.
  darec::core::Rng rng(97);
  std::vector<double> arrival_s(static_cast<size_t>(num_requests));
  double t = 0.0;
  for (int64_t i = 0; i < num_requests; ++i) {
    const double u = static_cast<double>(rng.Uniform(1e-6f, 0.999999f));
    t += -std::log(1.0 - u) / qps;
    arrival_s[static_cast<size_t>(i)] = t;
  }

  std::vector<std::future<darec::core::StatusOr<TopKResult>>> futures(
      static_cast<size_t>(num_requests));
  std::vector<double> latency_us(static_cast<size_t>(num_requests), 0.0);
  // Blocking handoff (not a spin): a spinning collector on a small machine
  // steals whole scheduler timeslices from the flusher and pollutes the tail.
  std::mutex published_mu;
  std::condition_variable published_cv;
  int64_t published = 0;
  const Clock::time_point start = Clock::now();
  const auto scheduled_at = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           arrival_s[static_cast<size_t>(i)]));
  };

  std::thread collector([&] {
    for (int64_t i = 0; i < num_requests; ++i) {
      {
        std::unique_lock<std::mutex> lock(published_mu);
        published_cv.wait(lock, [&] { return published > i; });
      }
      auto result = futures[static_cast<size_t>(i)].get();
      const Clock::time_point done = Clock::now();
      DARE_CHECK(result.ok()) << "poisson request " << i << " failed";
      latency_us[static_cast<size_t>(i)] =
          std::chrono::duration<double, std::micro>(done - scheduled_at(i))
              .count();
    }
  });

  for (int64_t i = 0; i < num_requests; ++i) {
    std::this_thread::sleep_until(scheduled_at(i));
    futures[static_cast<size_t>(i)] = server.SubmitTopK(i % num_users, k);
    {
      std::lock_guard<std::mutex> lock(published_mu);
      published = i + 1;
    }
    published_cv.notify_one();
  }
  collector.join();

  std::sort(latency_us.begin(), latency_us.end());
  PoissonReport report;
  report.offered_qps = qps;
  report.requests = num_requests;
  report.p50_us = Percentile(latency_us, 0.50);
  report.p95_us = Percentile(latency_us, 0.95);
  report.p99_us = Percentile(latency_us, 0.99);
  return report;
}

struct OverloadReport {
  std::string name;     // ladder_on / ladder_off
  std::string detail;
  double offered_qps = 0.0;
  int64_t requests = 0;
  int64_t served = 0;
  int64_t shed = 0;      // ResourceExhausted at admission
  int64_t expired = 0;   // DeadlineExceeded
  double goodput_per_sec = 0.0;  // served / wall (first submit -> last done)
  double shed_rate = 0.0;        // (shed + expired) / requests
  double served_p50_us = 0.0;
  double served_p99_us = 0.0;
  int64_t peak_pending = 0;
  int64_t degraded_flushes = 0;
  /// Queue depth sampled at evenly spaced submissions: the ladder_off run
  /// shows monotonic growth, the ladder_on run stays under max_queue.
  std::vector<int64_t> depth_samples;
};

/// Open-loop Poisson arrivals above capacity, tolerating shed / expired
/// requests (that is the point). Latency percentiles cover SERVED requests
/// only, measured from scheduled arrival like RunPoisson.
OverloadReport RunOverload(Server& server, const std::string& name,
                           int64_t num_users, int64_t num_requests, double qps,
                           int64_t k, int64_t timeout_us) {
  using Clock = std::chrono::steady_clock;
  darec::core::Rng rng(131);
  std::vector<double> arrival_s(static_cast<size_t>(num_requests));
  double t = 0.0;
  for (int64_t i = 0; i < num_requests; ++i) {
    const double u = static_cast<double>(rng.Uniform(1e-6f, 0.999999f));
    t += -std::log(1.0 - u) / qps;
    arrival_s[static_cast<size_t>(i)] = t;
  }

  std::vector<std::future<darec::core::StatusOr<TopKResult>>> futures(
      static_cast<size_t>(num_requests));
  OverloadReport report;
  report.name = name;
  report.offered_qps = qps;
  report.requests = num_requests;

  std::mutex published_mu;
  std::condition_variable published_cv;
  int64_t published = 0;
  std::vector<double> served_latency_us;
  const Clock::time_point start = Clock::now();
  const auto scheduled_at = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           arrival_s[static_cast<size_t>(i)]));
  };

  std::thread collector([&] {
    for (int64_t i = 0; i < num_requests; ++i) {
      {
        std::unique_lock<std::mutex> lock(published_mu);
        published_cv.wait(lock, [&] { return published > i; });
      }
      auto result = futures[static_cast<size_t>(i)].get();
      const Clock::time_point done = Clock::now();
      if (result.ok()) {
        ++report.served;
        served_latency_us.push_back(
            std::chrono::duration<double, std::micro>(done - scheduled_at(i))
                .count());
      } else if (result.status().code() ==
                 darec::core::StatusCode::kResourceExhausted) {
        ++report.shed;
      } else if (result.status().code() ==
                 darec::core::StatusCode::kDeadlineExceeded) {
        ++report.expired;
      } else {
        DARE_CHECK(false) << "overload request " << i
                          << " failed unexpectedly: "
                          << result.status().ToString();
      }
    }
  });

  const int64_t sample_every = std::max<int64_t>(1, num_requests / 16);
  Stopwatch sw;
  for (int64_t i = 0; i < num_requests; ++i) {
    std::this_thread::sleep_until(scheduled_at(i));
    futures[static_cast<size_t>(i)] =
        server.SubmitTopK(i % num_users, k, timeout_us);
    if (i % sample_every == 0) report.depth_samples.push_back(server.pending());
    {
      std::lock_guard<std::mutex> lock(published_mu);
      published = i + 1;
    }
    published_cv.notify_one();
  }
  collector.join();
  const double seconds = sw.ElapsedSeconds();

  DARE_CHECK_EQ(report.served + report.shed + report.expired, num_requests)
      << "overload accounting must close";
  report.goodput_per_sec = static_cast<double>(report.served) / seconds;
  report.shed_rate =
      static_cast<double>(report.shed + report.expired) /
      static_cast<double>(num_requests);
  std::sort(served_latency_us.begin(), served_latency_us.end());
  report.served_p50_us = Percentile(served_latency_us, 0.50);
  report.served_p99_us = Percentile(served_latency_us, 0.99);
  const darec::serve::ServerStats stats = server.stats();
  report.peak_pending = stats.peak_pending;
  report.degraded_flushes = stats.degraded_flushes;
  return report;
}

void PrintOverloadReport(const OverloadReport& r) {
  std::printf(
      "overload %-10s @%9.0f qps: goodput %9.1f/s shed %5.1f%% served-p99 "
      "%9.1fus peak-queue %5lld degraded-flushes %lld\n",
      r.name.c_str(), r.offered_qps, r.goodput_per_sec, 100.0 * r.shed_rate,
      r.served_p99_us, static_cast<long long>(r.peak_pending),
      static_cast<long long>(r.degraded_flushes));
}

/// Deterministic ladder walk for CI: the (env-armed) serve.slow_flush fail
/// point stalls the first flush, submissions pile through every watermark,
/// and the run asserts each transition and full recovery. No timing
/// assertions — the stall dwarfs the submission burst.
int RunOverloadSmoke(std::shared_ptr<const ModelSnapshot> snapshot,
                     int64_t num_users, int64_t k) {
  using darec::core::FailPoint;
  if (!FailPoint::IsArmed("serve.slow_flush")) {
    // check.sh arms via DAREC_FAILPOINTS; arm a local default so the mode
    // also works standalone.
    FailPoint::Arm("serve.slow_flush", /*arg=*/300'000, /*fires=*/1);
  }
  ServerOptions options;
  options.max_batch = 4;
  options.flush_deadline_us = 0;
  options.max_queue = 64;
  options.overload.degrade_enter = 8;
  options.overload.degrade_exit = 0;  // only an empty queue recovers
  options.overload.shed_enter = 16;
  options.overload.shed_exit = 4;
  options.overload.k_degraded = std::max<int64_t>(1, k / 2);
  Server server(snapshot, options);

  std::vector<std::future<darec::core::StatusOr<TopKResult>>> admitted;
  admitted.push_back(server.SubmitTopK(0, k));  // starts the stalled flush
  int64_t sheds = 0;
  for (int64_t i = 1; i <= 64 && sheds == 0; ++i) {
    auto fut = server.SubmitTopK(i % num_users, k);
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        !fut.get().ok()) {
      ++sheds;
      continue;
    }
    admitted.push_back(std::move(fut));
  }
  DARE_CHECK_EQ(sheds, 1) << "admission never shed";
  for (auto& fut : admitted) {
    auto result = fut.get();
    DARE_CHECK(result.ok()) << result.status().ToString();
  }
  auto probe = server.SubmitTopK(0, k).get();  // drained queue -> Healthy
  DARE_CHECK(probe.ok()) << probe.status().ToString();
  const darec::serve::ServerStats stats = server.stats();
  DARE_CHECK_GE(stats.to_degraded, 1);
  DARE_CHECK_GE(stats.to_shedding, 1);
  DARE_CHECK_GE(stats.to_healthy, 1);
  DARE_CHECK_GE(stats.degraded_flushes, 1);
  DARE_CHECK_EQ(stats.shed_admission, 1);
  DARE_CHECK(stats.load_state == darec::serve::LoadState::kHealthy);
  std::printf(
      "overload smoke ok: ladder walked Healthy->Degraded(%lld)->"
      "Shedding(%lld)->Healthy(%lld), %lld degraded flushes, 1 shed\n",
      static_cast<long long>(stats.to_degraded),
      static_cast<long long>(stats.to_shedding),
      static_cast<long long>(stats.to_healthy),
      static_cast<long long>(stats.degraded_flushes));
  return 0;
}

void PrintReport(const ModeReport& m, double qps) {
  std::printf(
      "%-16s sat %10.1f users/s (maxbatch %3lld) | poisson@%.0f p50 %8.1fus "
      "p95 %8.1fus p99 %8.1fus",
      m.name.c_str(), m.saturation_users_per_sec,
      static_cast<long long>(m.max_batch_observed), qps, m.poisson.p50_us,
      m.poisson.p95_us, m.poisson.p99_us);
  std::printf("\n");
}

void WriteJson(const std::string& path, const std::string& dataset,
               int64_t num_users, int64_t num_items, int64_t dim, int64_t k,
               const std::vector<ModeReport>& modes,
               const std::vector<OverloadReport>& overload, double speedup,
               bool smoke) {
  FILE* f = std::fopen(path.c_str(), "w");
  DARE_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_bench\",\n");
  std::fprintf(f, "  \"header\": %s,\n",
               darec::bench::RunHeaderJson().c_str());
  std::fprintf(f, "  \"dataset\": \"%s\",\n", dataset.c_str());
  std::fprintf(f, "  \"users\": %lld,\n", static_cast<long long>(num_users));
  std::fprintf(f, "  \"items\": %lld,\n", static_cast<long long>(num_items));
  std::fprintf(f, "  \"dim\": %lld,\n", static_cast<long long>(dim));
  std::fprintf(f, "  \"k\": %lld,\n", static_cast<long long>(k));
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"baseline\": \"single_request: seed per-user scoring loop "
               "(bench/seed_topk.cc) compiled at the seed's -O2, one request "
               "per engine call\",\n");
  std::fprintf(f, "  \"modes\": [\n");
  for (size_t i = 0; i < modes.size(); ++i) {
    const ModeReport& m = modes[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", m.name.c_str());
    std::fprintf(f, "      \"detail\": \"%s\",\n", m.detail.c_str());
    std::fprintf(f, "      \"saturation_users_per_sec\": %.1f,\n",
                 m.saturation_users_per_sec);
    std::fprintf(f, "      \"max_batch_observed\": %lld,\n",
                 static_cast<long long>(m.max_batch_observed));
    std::fprintf(f,
                 "      \"poisson\": {\"offered_qps\": %.1f, \"requests\": "
                 "%lld, \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": "
                 "%.1f}\n",
                 m.poisson.offered_qps,
                 static_cast<long long>(m.poisson.requests), m.poisson.p50_us,
                 m.poisson.p95_us, m.poisson.p99_us);
    std::fprintf(f, "    }%s\n", i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"overload\": [\n");
  for (size_t i = 0; i < overload.size(); ++i) {
    const OverloadReport& r = overload[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"detail\": \"%s\",\n", r.detail.c_str());
    std::fprintf(f, "      \"offered_qps\": %.1f,\n", r.offered_qps);
    std::fprintf(f, "      \"requests\": %lld,\n",
                 static_cast<long long>(r.requests));
    std::fprintf(f, "      \"served\": %lld,\n",
                 static_cast<long long>(r.served));
    std::fprintf(f, "      \"shed_admission\": %lld,\n",
                 static_cast<long long>(r.shed));
    std::fprintf(f, "      \"expired\": %lld,\n",
                 static_cast<long long>(r.expired));
    std::fprintf(f, "      \"goodput_per_sec\": %.1f,\n", r.goodput_per_sec);
    std::fprintf(f, "      \"shed_rate\": %.4f,\n", r.shed_rate);
    std::fprintf(f, "      \"served_p50_us\": %.1f,\n", r.served_p50_us);
    std::fprintf(f, "      \"served_p99_us\": %.1f,\n", r.served_p99_us);
    std::fprintf(f, "      \"peak_pending\": %lld,\n",
                 static_cast<long long>(r.peak_pending));
    std::fprintf(f, "      \"degraded_flushes\": %lld,\n",
                 static_cast<long long>(r.degraded_flushes));
    std::fprintf(f, "      \"queue_depth_samples\": [");
    for (size_t s = 0; s < r.depth_samples.size(); ++s) {
      std::fprintf(f, "%s%lld", s > 0 ? ", " : "",
                   static_cast<long long>(r.depth_samples[s]));
    }
    std::fprintf(f, "]\n");
    std::fprintf(f, "    }%s\n", i + 1 < overload.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gates\": {\n");
  std::fprintf(f,
               "    \"microbatch_saturation_speedup_vs_single_request\": "
               "%.2f,\n"
               "    \"required_min_speedup\": 5.0,\n"
               "    \"fp32_bitwise_parity_incl_queue_off_and_snapshot_swap\": "
               "\"pass\"\n",
               speedup);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace darec;
  std::vector<std::string> args(argv + 1, argv + argc);
  auto config = core::Config::FromArgs(args);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const std::string out_path = config->GetString("out", "BENCH_serve.json");
  const std::string dataset_name =
      config->GetString("dataset", "amazon-book-small");
  const int64_t dim = config->GetInt("d", 64);
  const int64_t k = config->GetInt("k", 10);
  const bool smoke = config->GetBool("smoke", false);
  const bool overload_smoke = config->GetBool("overload_smoke", false);
  const int64_t requests = smoke ? 400 : config->GetInt("requests", 20000);
  const int64_t overload_requests =
      smoke ? 300 : config->GetInt("overload_requests", 6000);
  const int64_t producers = config->GetInt("producers", 4);
  const double qps = static_cast<double>(config->GetInt("qps", 3000));
  const int64_t poisson_requests =
      smoke ? 200 : config->GetInt("poisson_requests", 4000);
  // The seed loop serves ~5k users/s: full-size runs would take minutes, so
  // the baseline gets a proportionally smaller (but still long) workload.
  const int64_t seed_requests = smoke ? 100 : std::max<int64_t>(2000, requests / 10);
  const int64_t seed_poisson = smoke ? 100 : std::min<int64_t>(poisson_requests, 2000);
  const double seed_qps = std::min(qps, 2000.0);

  auto dataset = data::LoadPresetDataset(dataset_name);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int64_t num_users = dataset->num_users();
  core::Rng rng(17);
  const Matrix nodes =
      tensor::RandomNormal(dataset->num_nodes(), dim, 1.0f, rng);
  std::printf("%s: %lld users, %lld items, d=%lld, k=%lld%s\n",
              dataset_name.c_str(), (long long)num_users,
              (long long)dataset->num_items(), (long long)dim, (long long)k,
              smoke ? " [smoke]" : "");

  if (overload_smoke) {
    auto snapshot = ModelSnapshot::Create(nodes, &*dataset,
                                          /*build_int8=*/false, 1);
    DARE_CHECK(snapshot.ok());
    return RunOverloadSmoke(*snapshot, num_users, k);
  }

  // Serial fp32 reference: what every result (seed loop, queue off, queue
  // on, across the swap) must match bitwise.
  auto recommender = serve::Recommender::Create(nodes, &*dataset);
  DARE_CHECK(recommender.ok()) << recommender.status().ToString();
  std::vector<std::vector<ScoredItem>> reference(
      static_cast<size_t>(num_users));
  for (int64_t u = 0; u < num_users; ++u) {
    auto list = recommender->RecommendTopK(u, k);
    DARE_CHECK(list.ok());
    reference[static_cast<size_t>(u)] = std::move(list).value();
  }

  auto fp32_snapshot =
      ModelSnapshot::Create(nodes, &*dataset, /*build_int8=*/false, 1);
  auto fp32_snapshot_v2 =
      ModelSnapshot::Create(nodes, &*dataset, /*build_int8=*/false, 2);
  DARE_CHECK(fp32_snapshot.ok() && fp32_snapshot_v2.ok());

  std::vector<ModeReport> reports;

  {  // --- single_request: the seed per-request baseline -------------------
    ModeReport report;
    report.name = "single_request";
    report.detail =
        "seed per-user scoring loop (frozen -O2), one request at a time";
    {
      SeedServer server(nodes, *dataset);
      report.saturation_users_per_sec =
          RunSaturation(server, seed_requests, num_users, producers, k,
                        reference, nullptr);
      report.max_batch_observed = 1;
    }
    {
      SeedServer server(nodes, *dataset);
      report.poisson = RunPoisson(server, num_users, seed_poisson, seed_qps, k);
    }
    PrintReport(report, seed_qps);
    reports.push_back(std::move(report));
  }

  {  // --- queue_off_fp32: engine path, batching disabled -------------------
    ServerOptions options;
    options.max_batch = 1;
    options.flush_deadline_us = 0;
    options.max_queue = 0;  // closed-loop burst: no admission control
    options.overload.enabled = false;
    ModeReport report;
    report.name = "queue_off_fp32";
    report.detail = "serve::Server, max_batch=1: one engine batch-of-one per "
                    "request (bitwise parity gate for queue off)";
    {
      Server server(*fp32_snapshot, options);
      report.saturation_users_per_sec =
          RunSaturation(server, requests, num_users, producers, k, reference,
                        nullptr);
      server.Stop();
      report.max_batch_observed = server.stats().max_batch_observed;
    }
    {
      Server server(*fp32_snapshot, options);
      report.poisson = RunPoisson(server, num_users, poisson_requests, qps, k);
      server.Stop();
    }
    PrintReport(report, qps);
    reports.push_back(std::move(report));
  }

  {  // --- microbatch_fp32, with a mid-saturation snapshot swap -------------
    ServerOptions options;  // max_batch=64, deadline=1ms
    options.max_queue = 0;  // closed-loop burst: no admission control
    options.overload.enabled = false;
    ModeReport report;
    report.name = "microbatch_fp32";
    report.detail =
        "max_batch=64, deadline=1ms; same-content snapshot swap mid-run";
    {
      Server server(*fp32_snapshot, options);
      report.saturation_users_per_sec =
          RunSaturation(server, requests, num_users, producers, k, reference,
                        *fp32_snapshot_v2);
      server.Stop();
      report.max_batch_observed = server.stats().max_batch_observed;
    }
    {
      Server server(*fp32_snapshot, options);
      report.poisson = RunPoisson(server, num_users, poisson_requests, qps, k);
      server.Stop();
    }
    PrintReport(report, qps);
    reports.push_back(std::move(report));
  }

  // --- overload: open-loop at 2x measured capacity, ladder on vs off -------
  std::vector<OverloadReport> overload_reports;
  {
    const double capacity = reports[2].saturation_users_per_sec;
    const double overload_qps = 2.0 * capacity;
    {
      ServerOptions options;  // max_batch=64, deadline=1ms
      options.max_queue = 512;
      options.overload.k_degraded = std::max<int64_t>(1, k / 2);
      Server server(*fp32_snapshot, options);
      OverloadReport report =
          RunOverload(server, "ladder_on", num_users, overload_requests,
                      overload_qps, k, /*timeout_us=*/20'000);
      server.Stop();
      report.detail =
          "max_queue=512, derived watermarks, k_degraded=k/2, 20ms request "
          "deadlines";
      PrintOverloadReport(report);
      overload_reports.push_back(std::move(report));
    }
    {
      ServerOptions options;  // unbounded queue, no ladder, no deadlines
      options.max_queue = 0;
      options.overload.enabled = false;
      Server server(*fp32_snapshot, options);
      OverloadReport report =
          RunOverload(server, "ladder_off", num_users, overload_requests,
                      overload_qps, k, /*timeout_us=*/0);
      server.Stop();
      report.detail =
          "unbounded queue, no ladder, no deadlines: every request eventually "
          "served, queue depth grows monotonically under overload";
      PrintOverloadReport(report);
      overload_reports.push_back(std::move(report));
    }
  }

  const double speedup = reports[2].saturation_users_per_sec /
                         reports[0].saturation_users_per_sec;
  std::printf("microbatch vs single-request baseline at saturation: %.2fx\n",
              speedup);
  if (!smoke) {
    DARE_CHECK(speedup >= 5.0)
        << "microbatching gate: expected >= 5x the single-request baseline "
           "at saturation, measured "
        << speedup << "x";
  }

  WriteJson(out_path, dataset_name, num_users, dataset->num_items(), dim, k,
            reports, overload_reports, speedup, smoke);
  return 0;
}
