#include "topk/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "serve/recommender.h"
#include "tensor/init.h"

namespace darec::topk {
namespace {

using tensor::Matrix;

// ---------------------------------------------------------------------------
// Fixtures: a random dataset (so every user has train/val/test items) and
// random node embeddings over its users + items.
// ---------------------------------------------------------------------------

data::Dataset MakeRandomDataset(int64_t num_users, int64_t num_items,
                                int64_t per_user, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<data::Interaction> interactions;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t item : rng.SampleWithoutReplacement(num_items, per_user)) {
      interactions.push_back({u, item});
    }
  }
  auto ds = data::Dataset::Create("topk-test", num_users, num_items,
                                  std::move(interactions), data::SplitRatio{}, rng);
  DARE_CHECK(ds.ok());
  return std::move(ds).value();
}

Matrix RandomNodes(int64_t num_nodes, int64_t dim, uint64_t seed) {
  core::Rng rng(seed);
  return tensor::RandomNormal(num_nodes, dim, 1.0f, rng);
}

/// Reference select: scalar dot scores, mask, full stable ordering by
/// (score desc, id asc), truncate — the semantics the engine must match.
std::vector<ScoredItem> NaiveTopK(const Matrix& nodes, int64_t num_users,
                                  int64_t num_items, int64_t user, int64_t k,
                                  const std::vector<int64_t>* seen,
                                  MaskMode mask_mode) {
  std::vector<ScoredItem> all;
  for (int64_t item = 0; item < num_items; ++item) {
    float score = 0.0f;
    const float* urow = nodes.Row(user);
    const float* irow = nodes.Row(num_users + item);
    for (int64_t c = 0; c < nodes.cols(); ++c) score += urow[c] * irow[c];
    const bool masked =
        seen != nullptr && std::binary_search(seen->begin(), seen->end(), item);
    if (masked) {
      if (mask_mode == MaskMode::kDrop) continue;
      score = -std::numeric_limits<float>::infinity();
    }
    all.push_back({item, score});
  }
  std::sort(all.begin(), all.end(), [](const ScoredItem& a, const ScoredItem& b) {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  });
  if (static_cast<int64_t>(all.size()) > std::min(k, num_items)) {
    all.resize(static_cast<size_t>(std::min(k, num_items)));
  }
  return all;
}

void ExpectListsEqual(const std::vector<ScoredItem>& a,
                      const std::vector<ScoredItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(TopKEngineTest, MatchesNaiveReferenceBothMaskModes) {
  data::Dataset ds = MakeRandomDataset(23, 17, 8, 1);
  Matrix nodes = RandomNodes(ds.num_nodes(), 12, 2);
  Engine engine(nodes, ds.num_users(), ds.num_items());
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };

  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  for (MaskMode mode : {MaskMode::kScoreNegInf, MaskMode::kDrop}) {
    auto lists = engine.TopK(users, 5, seen, mode);
    ASSERT_EQ(lists.size(), users.size());
    for (size_t q = 0; q < users.size(); ++q) {
      ExpectListsEqual(lists[q],
                       NaiveTopK(nodes, ds.num_users(), ds.num_items(),
                                 users[q], 5, &ds.TrainItemsOfUser(users[q]),
                                 mode));
    }
  }
}

TEST(TopKEngineTest, NoMaskingWhenSeenFnEmpty) {
  Matrix nodes = RandomNodes(9, 6, 3);
  Engine engine(nodes, 4, 5);
  auto lists = engine.TopK({0, 3}, 3, SeenItemsFn(), MaskMode::kDrop);
  ASSERT_EQ(lists.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    ExpectListsEqual(lists[q], NaiveTopK(nodes, 4, 5, q == 0 ? 0 : 3, 3,
                                         nullptr, MaskMode::kDrop));
  }
}

TEST(TopKEngineTest, TieBreakIsAscendingItemId) {
  // Every item embedding identical -> all scores tie; the ranking must be
  // item ids ascending, at every rank, regardless of heap internals.
  Matrix nodes(3 + 20, 4);
  for (int64_t r = 0; r < nodes.rows(); ++r) nodes(r, 0) = 1.0f;
  Engine engine(nodes, 3, 20);
  auto lists = engine.TopK({0, 1, 2}, 7, SeenItemsFn(), MaskMode::kScoreNegInf);
  for (const auto& list : lists) {
    ASSERT_EQ(list.size(), 7u);
    for (int64_t i = 0; i < 7; ++i) EXPECT_EQ(list[i].item, i);
  }
  // Masked items tie at -inf and also break by id: with items {0,2} seen,
  // the eligible 18 items come first, then 0 before 2.
  const std::vector<int64_t> seen_items = {0, 2};
  SeenItemsFn seen = [&seen_items](int64_t) { return &seen_items; };
  auto masked = engine.TopK({1}, 20, seen, MaskMode::kScoreNegInf);
  ASSERT_EQ(masked[0].size(), 20u);
  EXPECT_EQ(masked[0][18].item, 0);
  EXPECT_EQ(masked[0][19].item, 2);
}

TEST(TopKEngineTest, ThreadCountInvariance) {
  data::Dataset ds = MakeRandomDataset(40, 30, 9, 4);
  Matrix nodes = RandomNodes(ds.num_nodes(), 16, 5);
  Engine engine(nodes, ds.num_users(), ds.num_items());
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  core::ThreadPool::SetGlobalThreads(1);
  auto serial = engine.TopK(users, 10, seen, MaskMode::kScoreNegInf);
  core::ThreadPool::SetGlobalThreads(8);
  auto parallel = engine.TopK(users, 10, seen, MaskMode::kScoreNegInf);
  core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t q = 0; q < serial.size(); ++q) {
    ExpectListsEqual(serial[q], parallel[q]);
  }
}

TEST(TopKEngineTest, BlockSizeInvarianceIncludingRaggedBlocks) {
  // 10 queried users with block sizes 3 / 4 / 128: 10 is not a multiple of
  // either small block, so the last block is ragged; results must not move.
  data::Dataset ds = MakeRandomDataset(10, 14, 7, 6);
  Matrix nodes = RandomNodes(ds.num_nodes(), 8, 7);
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  EngineOptions wide;  // default 128: one block
  Engine reference(nodes, ds.num_users(), ds.num_items(), wide);
  auto expected = reference.TopK(users, 6, seen, MaskMode::kDrop);
  for (int64_t block : {1, 3, 4}) {
    EngineOptions options;
    options.block_users = block;
    Engine engine(nodes, ds.num_users(), ds.num_items(), options);
    auto lists = engine.TopK(users, 6, seen, MaskMode::kDrop);
    ASSERT_EQ(lists.size(), expected.size());
    for (size_t q = 0; q < lists.size(); ++q) {
      ExpectListsEqual(lists[q], expected[q]);
    }
  }
}

TEST(TopKEngineTest, KAtLeastNumItems) {
  Matrix nodes = RandomNodes(2 + 6, 5, 8);
  Engine engine(nodes, 2, 6);
  const std::vector<int64_t> seen_items = {1, 4};
  SeenItemsFn seen = [&seen_items](int64_t) { return &seen_items; };

  // kScoreNegInf keeps every item: list size = num_items even for k >> I.
  auto full = engine.TopK({0}, 100, seen, MaskMode::kScoreNegInf);
  ASSERT_EQ(full[0].size(), 6u);
  // kDrop clamps to the eligible count.
  auto dropped = engine.TopK({0}, 100, seen, MaskMode::kDrop);
  ASSERT_EQ(dropped[0].size(), 4u);
  for (const ScoredItem& s : dropped[0]) {
    EXPECT_NE(s.item, 1);
    EXPECT_NE(s.item, 4);
  }
  // Every item seen -> empty list under kDrop.
  const std::vector<int64_t> all_items = {0, 1, 2, 3, 4, 5};
  SeenItemsFn all_seen = [&all_items](int64_t) { return &all_items; };
  auto empty = engine.TopK({0}, 3, all_seen, MaskMode::kDrop);
  EXPECT_TRUE(empty[0].empty());
}

TEST(TopKEngineTest, EmptyQueryAndDuplicateUsers) {
  Matrix nodes = RandomNodes(5 + 4, 3, 9);
  Engine engine(nodes, 5, 4);
  EXPECT_TRUE(engine.TopK({}, 2, SeenItemsFn(), MaskMode::kDrop).empty());
  auto lists = engine.TopK({2, 2, 2}, 2, SeenItemsFn(), MaskMode::kDrop);
  ASSERT_EQ(lists.size(), 3u);
  ExpectListsEqual(lists[0], lists[1]);
  ExpectListsEqual(lists[0], lists[2]);
}

TEST(TopKEngineTest, TopKOneBitwiseEqualsBatchOfOne) {
  data::Dataset ds = MakeRandomDataset(15, 21, 6, 20);
  Matrix nodes = RandomNodes(ds.num_nodes(), 10, 21);
  Engine engine(nodes, ds.num_users(), ds.num_items());
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  for (MaskMode mode : {MaskMode::kScoreNegInf, MaskMode::kDrop}) {
    for (int64_t u = 0; u < ds.num_users(); ++u) {
      auto batch = engine.TopK({u}, 5, seen, mode);
      std::vector<ScoredItem> one;
      engine.TopKOne(u, 5, seen, mode, &one);
      ExpectListsEqual(one, batch[0]);
    }
  }
  // Result vector is overwritten, not appended to.
  std::vector<ScoredItem> reused(30, ScoredItem{-1, 0.0f});
  engine.TopKOne(0, 4, seen, MaskMode::kDrop, &reused);
  EXPECT_LE(reused.size(), 4u);
}

// ---------------------------------------------------------------------------
// Consumer parity: EvaluateRanking and Recommender both sit on the engine.
// ---------------------------------------------------------------------------

/// Literal re-implementation of the pre-engine per-user EvaluateRanking loop
/// (scalar dots, -inf mask, nth_element + sort). Random real-valued
/// embeddings make ties measure-zero, so its unspecified tie order is moot.
eval::MetricSet SeedStyleEvaluateRanking(const Matrix& nodes,
                                         const data::Dataset& ds,
                                         const eval::EvalOptions& options) {
  const int64_t num_users = ds.num_users();
  const int64_t num_items = ds.num_items();
  const int64_t dim = nodes.cols();
  const int64_t max_k = *std::max_element(options.ks.begin(), options.ks.end());
  eval::MetricSet totals;
  for (int64_t k : options.ks) {
    totals.recall[k] = totals.ndcg[k] = totals.precision[k] = 0.0;
    totals.hit_rate[k] = totals.mrr[k] = 0.0;
  }
  std::vector<float> scores(num_items);
  std::vector<int64_t> order(num_items);
  int64_t evaluated = 0;
  for (int64_t user = 0; user < num_users; ++user) {
    const auto& relevant = options.split == eval::EvalSplit::kTest
                               ? ds.TestItemsOfUser(user)
                               : ds.ValidationItemsOfUser(user);
    if (relevant.empty()) continue;
    ++evaluated;
    const float* urow = nodes.Row(user);
    for (int64_t item = 0; item < num_items; ++item) {
      const float* irow = nodes.Row(num_users + item);
      float acc = 0.0f;
      for (int64_t c = 0; c < dim; ++c) acc += urow[c] * irow[c];
      scores[item] = acc;
    }
    for (int64_t item : ds.TrainItemsOfUser(user)) {
      scores[item] = -std::numeric_limits<float>::infinity();
    }
    for (int64_t i = 0; i < num_items; ++i) order[i] = i;
    std::nth_element(order.begin(), order.begin() + (max_k - 1), order.end(),
                     [&](int64_t a, int64_t b) { return scores[a] > scores[b]; });
    std::sort(order.begin(), order.begin() + max_k,
              [&](int64_t a, int64_t b) { return scores[a] > scores[b]; });
    std::vector<int64_t> top(order.begin(), order.begin() + max_k);
    for (int64_t k : options.ks) {
      totals.recall[k] += eval::RecallAtK(top, relevant, k);
      totals.ndcg[k] += eval::NdcgAtK(top, relevant, k);
      totals.precision[k] += eval::PrecisionAtK(top, relevant, k);
      totals.hit_rate[k] += eval::HitRateAtK(top, relevant, k);
      totals.mrr[k] += eval::MrrAtK(top, relevant, k);
    }
  }
  if (evaluated > 0) {
    for (int64_t k : options.ks) {
      totals.recall[k] /= static_cast<double>(evaluated);
      totals.ndcg[k] /= static_cast<double>(evaluated);
      totals.precision[k] /= static_cast<double>(evaluated);
      totals.hit_rate[k] /= static_cast<double>(evaluated);
      totals.mrr[k] /= static_cast<double>(evaluated);
    }
  }
  return totals;
}

void ExpectMetricsBitwiseEqual(const eval::MetricSet& a, const eval::MetricSet& b) {
  ASSERT_EQ(a.recall.size(), b.recall.size());
  for (const auto& [k, value] : a.recall) EXPECT_EQ(value, b.recall.at(k)) << k;
  for (const auto& [k, value] : a.ndcg) EXPECT_EQ(value, b.ndcg.at(k)) << k;
  for (const auto& [k, value] : a.precision) {
    EXPECT_EQ(value, b.precision.at(k)) << k;
  }
  for (const auto& [k, value] : a.hit_rate) {
    EXPECT_EQ(value, b.hit_rate.at(k)) << k;
  }
  for (const auto& [k, value] : a.mrr) EXPECT_EQ(value, b.mrr.at(k)) << k;
}

TEST(TopKEngineConsumerTest, EvaluateRankingBitwiseEqualToSeedLoop) {
  data::Dataset ds = MakeRandomDataset(50, 40, 10, 10);
  Matrix nodes = RandomNodes(ds.num_nodes(), 24, 11);
  eval::EvalOptions options;
  options.ks = {3, 5, 10};
  ExpectMetricsBitwiseEqual(eval::EvaluateRanking(nodes, ds, options),
                            SeedStyleEvaluateRanking(nodes, ds, options));
  options.split = eval::EvalSplit::kValidation;
  ExpectMetricsBitwiseEqual(eval::EvaluateRanking(nodes, ds, options),
                            SeedStyleEvaluateRanking(nodes, ds, options));
}

TEST(TopKEngineConsumerTest, RecommendTopKBatchEqualsPerUserCalls) {
  data::Dataset ds = MakeRandomDataset(25, 18, 8, 12);
  Matrix nodes = RandomNodes(ds.num_nodes(), 10, 13);
  auto rec = serve::Recommender::Create(nodes, &ds);
  ASSERT_TRUE(rec.ok());

  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);
  auto batch = rec->RecommendTopKBatch(users, 6);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), users.size());
  for (size_t q = 0; q < users.size(); ++q) {
    auto single = rec->RecommendTopK(users[q], 6);
    ASSERT_TRUE(single.ok());
    ExpectListsEqual((*batch)[q], *single);
    // And both equal the naive masked reference (bitwise scores: the GEMM
    // accumulates in the same ascending order as the scalar dot).
    ExpectListsEqual((*batch)[q],
                     NaiveTopK(nodes, ds.num_users(), ds.num_items(), users[q],
                               6, &ds.TrainItemsOfUser(users[q]), MaskMode::kDrop));
  }

  EXPECT_FALSE(rec->RecommendTopKBatch({0, -1}, 3).ok());
  EXPECT_FALSE(rec->RecommendTopKBatch({ds.num_users()}, 3).ok());
  EXPECT_FALSE(rec->RecommendTopKBatch({0}, 0).ok());
  auto none = rec->RecommendTopKBatch({}, 3);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace darec::topk
