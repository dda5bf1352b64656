// Batched top-K engine benchmark, at 1/2/4 pool threads, every workload
// behind a bitwise parity gate. Writes BENCH_topk.json.
//
//  - eval_all_ranking: eval::EvaluateRanking on a Table II preset, against
//    the frozen seed per-user loop (bench/seed_topk.cc, compiled at the
//    seed's -O2);
//  - serve_batch_topk: serve::Recommender::RecommendTopKBatch over every
//    user, against the seed per-request loop;
//  - web_flush_b10 / web_flush_b64: topk::Engine::TopK in the serving
//    tier's flush shape on the bench/e2e web catalog's shape (200k users,
//    20k items, random d-dim embeddings, ~10 seen items per user, k=20,
//    kDrop), batches of 10 and 64 random users, against a scalar reference
//    on every 16th query.
//
// Usage: topk_bench [out=BENCH_topk.json] [dataset=amazon-book-small]
//                   [d=64] [serve_k=10] [smoke=0]
//
// smoke=1 runs every workload exactly once (no warmup, no repetition) —
// the CI crash/parity gate used by scripts/check.sh.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/run_header.h"
#include "bench/seed_topk.h"
#include "core/check.h"
#include "core/config.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "data/presets.h"
#include "eval/metrics.h"
#include "serve/recommender.h"
#include "tensor/init.h"
#include "topk/engine.h"

namespace {

using darec::core::Stopwatch;
using darec::core::ThreadPool;
using darec::tensor::Matrix;

const std::vector<int> kThreadCounts = {1, 2, 4};

/// Best wall seconds of fn() — one warmup, then repeats until 1 s total or
/// 8 reps (single pass when smoke).
template <typename Fn>
double BestSeconds(Fn&& fn, bool smoke) {
  if (smoke) {
    Stopwatch sw;
    fn();
    return sw.ElapsedSeconds();
  }
  fn();  // warmup
  double best = 1e300, total = 0.0;
  int reps = 0;
  while ((total < 1.0 && reps < 8) || reps < 3) {
    Stopwatch sw;
    fn();
    const double s = sw.ElapsedSeconds();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

void CheckMetricsBitwiseEqual(const darec::eval::MetricSet& a,
                              const darec::eval::MetricSet& b,
                              const std::string& what) {
  for (const auto& [k, value] : a.recall) {
    DARE_CHECK(value == b.recall.at(k)) << what << ": recall@" << k << " diverged";
  }
  for (const auto& [k, value] : a.ndcg) {
    DARE_CHECK(value == b.ndcg.at(k)) << what << ": ndcg@" << k << " diverged";
  }
  for (const auto& [k, value] : a.precision) {
    DARE_CHECK(value == b.precision.at(k)) << what << ": precision@" << k << " diverged";
  }
  for (const auto& [k, value] : a.hit_rate) {
    DARE_CHECK(value == b.hit_rate.at(k)) << what << ": hit_rate@" << k << " diverged";
  }
  for (const auto& [k, value] : a.mrr) {
    DARE_CHECK(value == b.mrr.at(k)) << what << ": mrr@" << k << " diverged";
  }
}

struct ThreadSample {
  int threads;
  double users_per_sec;
  double speedup_vs_seed;  // unused when the workload has no seed loop
};

struct WorkloadReport {
  std::string name;
  std::string detail;
  double seed_users_per_sec = 0.0;  // 0: no seed loop for this workload
  std::vector<ThreadSample> samples;
};

void PrintReport(const WorkloadReport& r) {
  std::printf("%-18s", r.name.c_str());
  if (r.seed_users_per_sec > 0.0) {
    std::printf(" seed %10.1f users/s", r.seed_users_per_sec);
  }
  for (const ThreadSample& s : r.samples) {
    std::printf(" | %dT %10.1f users/s %7.2f us/user", s.threads,
                s.users_per_sec, 1e6 / s.users_per_sec);
    if (r.seed_users_per_sec > 0.0) std::printf(" (%.2fx)", s.speedup_vs_seed);
  }
  std::printf("\n");
}

void WriteJson(const std::string& path, const std::string& dataset,
               int64_t num_users, int64_t num_items, int64_t dim,
               const std::vector<WorkloadReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  DARE_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"topk_bench\",\n");
  std::fprintf(f, "  \"header\": %s,\n", darec::bench::RunHeaderJson().c_str());
  std::fprintf(f, "  \"dataset\": \"%s\",\n", dataset.c_str());
  std::fprintf(f, "  \"users\": %lld,\n", static_cast<long long>(num_users));
  std::fprintf(f, "  \"items\": %lld,\n", static_cast<long long>(num_items));
  std::fprintf(f, "  \"dim\": %lld,\n", static_cast<long long>(dim));
  std::fprintf(f,
               "  \"baseline\": \"seed per-user scalar scoring loops "
               "(bench/seed_topk.cc) compiled at the seed's -O2\",\n");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    const bool has_seed = r.seed_users_per_sec > 0.0;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"detail\": \"%s\",\n", r.detail.c_str());
    if (has_seed) {
      std::fprintf(f, "      \"seed_users_per_sec\": %.1f,\n",
                   r.seed_users_per_sec);
    }
    std::fprintf(f, "      \"threads\": [\n");
    for (size_t t = 0; t < r.samples.size(); ++t) {
      const ThreadSample& s = r.samples[t];
      std::fprintf(f,
                   "        {\"threads\": %d, \"users_per_sec\": %.1f, "
                   "\"us_per_user\": %.2f",
                   s.threads, s.users_per_sec, 1e6 / s.users_per_sec);
      if (has_seed) {
        std::fprintf(f, ", \"speedup_vs_seed\": %.3f", s.speedup_vs_seed);
      }
      std::fprintf(f, "}%s\n", t + 1 < r.samples.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Scalar reference for the web workload's parity gate: per-item scalar
/// dot, seen items dropped, full sort by (score desc, id asc), truncate.
std::vector<darec::topk::ScoredItem> ScalarTopK(
    const Matrix& nodes, int64_t num_users, int64_t num_items, int64_t user,
    int64_t k, const std::vector<int64_t>& seen) {
  std::vector<darec::topk::ScoredItem> all;
  const float* urow = nodes.Row(user);
  for (int64_t item = 0; item < num_items; ++item) {
    if (std::binary_search(seen.begin(), seen.end(), item)) continue;
    const float* irow = nodes.Row(num_users + item);
    float score = 0.0f;
    for (int64_t c = 0; c < nodes.cols(); ++c) score += urow[c] * irow[c];
    all.push_back({item, score});
  }
  std::sort(all.begin(), all.end(), darec::topk::RanksBefore());
  all.resize(std::min<size_t>(all.size(), static_cast<size_t>(k)));
  return all;
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
  const std::string out_path = config->GetString("out", "BENCH_topk.json");
  const std::string dataset_name =
      config->GetString("dataset", "amazon-book-small");
  const int64_t dim = config->GetInt("d", 64);
  const int64_t serve_k = config->GetInt("serve_k", 10);
  const bool smoke = config->GetBool("smoke", false);

  auto dataset = data::LoadPresetDataset(dataset_name);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::Rng rng(17);
  const Matrix nodes = tensor::RandomNormal(dataset->num_nodes(), dim, 1.0f, rng);

  std::vector<int64_t> all_users;
  int64_t evaluated_users = 0;
  for (int64_t u = 0; u < dataset->num_users(); ++u) {
    all_users.push_back(u);
    if (!dataset->TestItemsOfUser(u).empty()) ++evaluated_users;
  }
  std::printf("%s: %lld users (%lld with test items), %lld items, d=%lld%s\n",
              dataset_name.c_str(), (long long)dataset->num_users(),
              (long long)evaluated_users, (long long)dataset->num_items(),
              (long long)dim, smoke ? " [smoke]" : "");

  std::vector<WorkloadReport> reports;

  // --- Workload 1: all-ranking evaluation (the eval_every hot path) -------
  {
    eval::EvalOptions options;  // ks = {5, 10, 20}
    eval::MetricSet seed_metrics;
    const double seed_s = BestSeconds(
        [&] { seed_metrics = benchseed::EvaluateRanking(nodes, *dataset, options); },
        smoke);
    WorkloadReport report;
    report.name = "eval_all_ranking";
    report.detail = "EvaluateRanking, ks=5/10/20, all non-interacted items";
    report.seed_users_per_sec = static_cast<double>(evaluated_users) / seed_s;
    for (int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      eval::MetricSet metrics;
      const double s = BestSeconds(
          [&] { metrics = eval::EvaluateRanking(nodes, *dataset, options); },
          smoke);
      CheckMetricsBitwiseEqual(seed_metrics, metrics,
                               "eval@" + std::to_string(threads) + "T");
      report.samples.push_back({threads, static_cast<double>(evaluated_users) / s,
                                seed_s / s});
    }
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
    PrintReport(report);
    reports.push_back(std::move(report));
  }

  // --- Workload 2: batched serving ----------------------------------------
  {
    auto recommender = serve::Recommender::Create(nodes, &*dataset);
    DARE_CHECK(recommender.ok()) << recommender.status().ToString();

    std::vector<std::vector<std::pair<int64_t, float>>> seed_lists(
        all_users.size());
    const double seed_s = BestSeconds(
        [&] {
          for (size_t q = 0; q < all_users.size(); ++q) {
            seed_lists[q] =
                benchseed::RecommendTopK(nodes, *dataset, all_users[q], serve_k);
          }
        },
        smoke);
    WorkloadReport report;
    report.name = "serve_batch_topk";
    report.detail = "RecommendTopKBatch(all users, k=" +
                    std::to_string(serve_k) + ") vs seed per-request loop";
    report.seed_users_per_sec = static_cast<double>(all_users.size()) / seed_s;
    for (int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      std::vector<std::vector<serve::ScoredItem>> lists;
      const double s = BestSeconds(
          [&] {
            auto batch = recommender->RecommendTopKBatch(all_users, serve_k);
            DARE_CHECK(batch.ok()) << batch.status().ToString();
            lists = std::move(batch).value();
          },
          smoke);
      for (size_t q = 0; q < all_users.size(); ++q) {
        DARE_CHECK_EQ(lists[q].size(), seed_lists[q].size())
            << "serve parity: list size diverged for user " << all_users[q];
        for (size_t i = 0; i < lists[q].size(); ++i) {
          DARE_CHECK(lists[q][i].item == seed_lists[q][i].first &&
                     lists[q][i].score == seed_lists[q][i].second)
              << "serve parity: rank " << i << " diverged for user "
              << all_users[q] << " at " << threads << " threads";
        }
      }
      report.samples.push_back(
          {threads, static_cast<double>(all_users.size()) / s, seed_s / s});
    }
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
    PrintReport(report);
    reports.push_back(std::move(report));
  }

  // --- Workload 3: the serving tier's flush shape on a web catalog --------
  {
    constexpr int64_t kWebUsers = 200000;
    constexpr int64_t kWebItems = 20000;
    constexpr int64_t kWebK = 20;
    constexpr int64_t kSeenPerUser = 10;  // the web_scale catalog's mean degree
    constexpr int64_t kQueries = 2560;    // per timed pass, cut into batches
    constexpr int64_t kGateStride = 16;   // every 16th query is checked
    core::Rng web_rng(23);
    const Matrix web_nodes =
        tensor::RandomNormal(kWebUsers + kWebItems, dim, 1.0f, web_rng);
    const topk::Engine engine(web_nodes, kWebUsers, kWebItems);
    std::vector<int64_t> queries(kQueries);
    for (int64_t& u : queries) u = web_rng.UniformInt(kWebUsers);
    // Seen lists are sorted but may repeat an id, as a training row can.
    std::vector<std::vector<int64_t>> seen_lists(static_cast<size_t>(kWebUsers));
    for (int64_t u : queries) {
      std::vector<int64_t>& list = seen_lists[static_cast<size_t>(u)];
      if (!list.empty()) continue;
      for (int64_t i = 0; i < kSeenPerUser; ++i) {
        list.push_back(web_rng.UniformInt(kWebItems));
      }
      std::sort(list.begin(), list.end());
    }
    const topk::SeenItemsFn seen = [&seen_lists](int64_t u) {
      return &seen_lists[static_cast<size_t>(u)];
    };
    std::vector<std::vector<topk::ScoredItem>> reference(kQueries);
    for (int64_t q = 0; q < kQueries; q += kGateStride) {
      const int64_t u = queries[q];
      reference[q] = ScalarTopK(web_nodes, kWebUsers, kWebItems, u, kWebK,
                                seen_lists[static_cast<size_t>(u)]);
    }
    std::printf("web catalog: %lld users, %lld items, d=%lld\n",
                (long long)kWebUsers, (long long)kWebItems, (long long)dim);
    for (int64_t batch : {10, 64}) {
      WorkloadReport report;
      report.name = "web_flush_b" + std::to_string(batch);
      report.detail = "Engine::TopK, 200k users x 20k items, batches of " +
                      std::to_string(batch) +
                      " random users, k=20, kDrop, ~10 seen items per user";
      for (int threads : kThreadCounts) {
        ThreadPool::SetGlobalThreads(threads);
        std::vector<std::vector<topk::ScoredItem>> lists(kQueries);
        const double s = BestSeconds(
            [&] {
              for (int64_t b0 = 0; b0 < kQueries; b0 += batch) {
                const std::vector<int64_t> users(
                    queries.begin() + b0,
                    queries.begin() + std::min(kQueries, b0 + batch));
                auto ranked =
                    engine.TopK(users, kWebK, seen, topk::MaskMode::kDrop);
                std::move(ranked.begin(), ranked.end(), lists.begin() + b0);
              }
            },
            smoke);
        for (int64_t q = 0; q < kQueries; q += kGateStride) {
          DARE_CHECK(lists[q] == reference[q])
              << "web parity: user " << queries[q] << " diverged from the "
              << "scalar reference at batch " << batch << ", " << threads
              << " threads";
        }
        report.samples.push_back(
            {threads, static_cast<double>(kQueries) / s, 0.0});
      }
      ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
      PrintReport(report);
      reports.push_back(std::move(report));
    }
  }

  WriteJson(out_path, dataset_name, dataset->num_users(), dataset->num_items(),
            dim, reports);
  return 0;
}
