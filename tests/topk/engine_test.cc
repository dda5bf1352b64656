#include "topk/engine.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "data/shards.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "serve/recommender.h"
#include "serve/snapshot.h"
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

/// One random sorted seen list per user, each item seen with probability
/// `density`.
std::vector<std::vector<int64_t>> RandomSeenLists(int64_t num_users,
                                                  int64_t num_items,
                                                  double density,
                                                  uint64_t seed) {
  core::Rng rng(seed);
  std::vector<std::vector<int64_t>> lists(static_cast<size_t>(num_users));
  for (auto& list : lists) {
    for (int64_t item = 0; item < num_items; ++item) {
      if (rng.UniformDouble() < density) list.push_back(item);
    }
  }
  return lists;
}

/// Ranks `users` as one TopK batch and checks every list bitwise against
/// TopKOne and NaiveTopK.
void ExpectBatchMatchesReference(
    const Engine& engine, const Matrix& nodes,
    const std::vector<int64_t>& users, int64_t k,
    const std::vector<std::vector<int64_t>>& seen_lists, MaskMode mode) {
  const SeenItemsFn seen = [&seen_lists](int64_t u) {
    return &seen_lists[static_cast<size_t>(u)];
  };
  const auto lists = engine.TopK(users, k, seen, mode);
  ASSERT_EQ(lists.size(), users.size());
  std::vector<ScoredItem> one;
  for (size_t q = 0; q < users.size(); ++q) {
    SCOPED_TRACE("user " + std::to_string(users[q]) + " k " +
                 std::to_string(k));
    engine.TopKOne(users[q], k, seen, mode, &one);
    ExpectListsEqual(lists[q], one);
    ExpectListsEqual(lists[q],
                     NaiveTopK(nodes, engine.num_users(), engine.num_items(),
                               users[q], k,
                               &seen_lists[static_cast<size_t>(users[q])],
                               mode));
  }
}

constexpr MaskMode kBothModes[] = {MaskMode::kScoreNegInf, MaskMode::kDrop};

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

TEST(TopKEngineTest, BatchCompositionInvariance) {
  // Row groups are sized from the batch size alone: batches of 1..5 run as
  // groups of at most 4, 16/17 as groups of 4/8, 64/65 as groups of 16/20,
  // 300 as groups of 32 with a ragged tail. The same 300 users, cut into
  // consecutive batches of each size (in a scrambled order, so batchmates
  // are not neighbouring ids), must get the same lists every time.
  constexpr int64_t kUsers = 300;
  constexpr int64_t kItems = 70;
  Matrix nodes = RandomNodes(kUsers + kItems, 9, 30);
  Engine engine(nodes, kUsers, kItems);
  const auto seen_lists = RandomSeenLists(kUsers, kItems, 0.2, 31);
  const SeenItemsFn seen = [&seen_lists](int64_t u) {
    return &seen_lists[static_cast<size_t>(u)];
  };
  std::vector<int64_t> order(kUsers);
  for (int64_t i = 0; i < kUsers; ++i) order[i] = (i * 7919) % kUsers;

  for (MaskMode mode : kBothModes) {
    std::vector<std::vector<ScoredItem>> expected(kUsers);
    for (int64_t u = 0; u < kUsers; ++u) {
      engine.TopKOne(u, 7, seen, mode, &expected[u]);
      ExpectListsEqual(expected[u],
                       NaiveTopK(nodes, kUsers, kItems, u, 7,
                                 &seen_lists[static_cast<size_t>(u)], mode));
    }
    for (int64_t batch : {1, 3, 4, 5, 16, 17, 64, 65, 300}) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      for (int64_t b0 = 0; b0 < kUsers; b0 += batch) {
        const std::vector<int64_t> users(
            order.begin() + b0, order.begin() + std::min(kUsers, b0 + batch));
        const auto lists = engine.TopK(users, 7, seen, mode);
        ASSERT_EQ(lists.size(), users.size());
        for (size_t q = 0; q < users.size(); ++q) {
          ExpectListsEqual(lists[q], expected[users[q]]);
        }
      }
    }
  }
}

TEST(TopKEngineTest, RaggedLastPanelsMatchReference) {
  // Items are packed 32 to a panel, the last one zero-padded: catalogs of
  // 1, 31, 32, 33 and 97 items put the padding everywhere from 31 columns
  // to none; widths 1 and 3 run the kernel with the shortest inner loops.
  constexpr int64_t kUsers = 6;
  std::vector<int64_t> users(kUsers);
  std::iota(users.begin(), users.end(), 0);
  for (int64_t items : {1, 31, 32, 33, 97}) {
    for (int64_t dim : {1, 3, 64}) {
      SCOPED_TRACE("items " + std::to_string(items) + " d " +
                   std::to_string(dim));
      Matrix nodes = RandomNodes(kUsers + items, dim,
                                 static_cast<uint64_t>(100 * items + dim));
      Engine engine(nodes, kUsers, items);
      const auto seen_lists =
          RandomSeenLists(kUsers, items, 0.25, static_cast<uint64_t>(items));
      for (MaskMode mode : kBothModes) {
        for (int64_t k : {int64_t{1}, int64_t{5}, items, items + 3}) {
          ExpectBatchMatchesReference(engine, nodes, users, k, seen_lists,
                                      mode);
        }
      }
    }
  }
}

TEST(TopKEngineTest, TiedItemsAcrossPanelBoundaryBreakById) {
  // Items 31 and 32 are identical and sit in different panels. Ten items
  // outrank them, so k = 11 cuts between the pair and the lower id must
  // win — whether the ten leaders arrive before the pair (the full heap
  // skips item 32 on its equal score) or after it (the leaders evict
  // item 32 from inside the heap).
  constexpr int64_t kItems = 64;
  for (int64_t leaders_begin : {0, 40}) {
    SCOPED_TRACE("leaders at " + std::to_string(leaders_begin));
    Matrix nodes(1 + kItems, 2);
    nodes(0, 0) = 1.0f;  // the user: an item's score is its coordinate 0
    for (int64_t i = 0; i < kItems; ++i) {
      nodes(1 + i, 0) = -1.0f - static_cast<float>(i);
    }
    for (int64_t i = 0; i < 10; ++i) {
      nodes(1 + leaders_begin + i, 0) = 10.0f + static_cast<float>(i);
    }
    for (int64_t twin : {31, 32}) {
      nodes(1 + twin, 0) = 5.0f;
      nodes(1 + twin, 1) = 0.25f;
    }
    Engine engine(nodes, 1, kItems);
    const std::vector<std::vector<int64_t>> nothing_seen(1);
    for (MaskMode mode : kBothModes) {
      for (int64_t k : {10, 11, 12}) {
        ExpectBatchMatchesReference(engine, nodes, {0}, k, nothing_seen, mode);
      }
    }
    std::vector<ScoredItem> list;
    engine.TopKOne(0, 11, SeenItemsFn(), MaskMode::kDrop, &list);
    ASSERT_EQ(list.size(), 11u);
    EXPECT_EQ(list[10].item, 31);
    engine.TopKOne(0, 12, SeenItemsFn(), MaskMode::kDrop, &list);
    ASSERT_EQ(list.size(), 12u);
    EXPECT_EQ(list[10].item, 31);
    EXPECT_EQ(list[11].item, 32);
    EXPECT_EQ(list[10].score, list[11].score);
  }
}

TEST(TopKEngineTest, KAtLeastEligibleCountPadsWithNegInf) {
  // 5 of 40 items are eligible. Under kScoreNegInf the other 35 fill the
  // tail at -inf in ascending id order; under kDrop the list stops at 5.
  constexpr int64_t kItems = 40;
  Matrix nodes = RandomNodes(2 + kItems, 6, 40);
  Engine engine(nodes, 2, kItems);
  const std::vector<int64_t> eligible = {3, 17, 31, 32, 39};
  std::vector<std::vector<int64_t>> seen_lists(2);
  for (int64_t item = 0; item < kItems; ++item) {
    if (!std::binary_search(eligible.begin(), eligible.end(), item)) {
      seen_lists[0].push_back(item);
    }
  }
  seen_lists[1] = seen_lists[0];
  for (MaskMode mode : kBothModes) {
    for (int64_t k : {5, 6, 10, 40, 50}) {
      ExpectBatchMatchesReference(engine, nodes, {0, 1}, k, seen_lists, mode);
    }
  }
  const SeenItemsFn seen = [&seen_lists](int64_t u) {
    return &seen_lists[static_cast<size_t>(u)];
  };
  std::vector<ScoredItem> padded;
  engine.TopKOne(0, 10, seen, MaskMode::kScoreNegInf, &padded);
  ASSERT_EQ(padded.size(), 10u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(std::binary_search(eligible.begin(), eligible.end(),
                                   padded[i].item));
  }
  for (size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(padded[i].score, -std::numeric_limits<float>::infinity());
    EXPECT_EQ(padded[i].item, seen_lists[0][i - 5]);
  }
  std::vector<ScoredItem> dropped;
  engine.TopKOne(0, 50, seen, MaskMode::kDrop, &dropped);
  EXPECT_EQ(dropped.size(), eligible.size());
}

TEST(TopKEngineTest, SeenListCoveringWholePanels) {
  // Each user's seen list covers one whole 32-item panel: the first, a
  // middle one, and the ragged last panel together with its neighbour.
  constexpr int64_t kItems = 97;
  Matrix nodes = RandomNodes(3 + kItems, 5, 50);
  Engine engine(nodes, 3, kItems);
  std::vector<std::vector<int64_t>> seen_lists(3);
  for (int64_t item = 0; item < 32; ++item) seen_lists[0].push_back(item);
  for (int64_t item = 32; item < 64; ++item) seen_lists[1].push_back(item);
  for (int64_t item = 64; item < kItems; ++item) seen_lists[2].push_back(item);
  for (MaskMode mode : kBothModes) {
    for (int64_t k : {5, 40, 97}) {
      ExpectBatchMatchesReference(engine, nodes, {0, 1, 2}, k, seen_lists,
                                  mode);
    }
  }
  const SeenItemsFn seen = [&seen_lists](int64_t u) {
    return &seen_lists[static_cast<size_t>(u)];
  };
  const auto lists = engine.TopK({0, 1, 2}, kItems, seen, MaskMode::kDrop);
  EXPECT_EQ(lists[0].size(), 65u);
  EXPECT_EQ(lists[1].size(), 65u);
  EXPECT_EQ(lists[2].size(), 64u);
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

/// Reference SimilarItems: scalar dots, RowNorms-style norms, cosine in
/// double, full sort by (score desc, id asc), truncate.
std::vector<ScoredItem> NaiveSimilarItems(const Matrix& nodes,
                                          int64_t num_users, int64_t num_items,
                                          int64_t item, int64_t k) {
  const auto norm = [&](int64_t i) {
    const float* row = nodes.Row(num_users + i);
    double acc = 0.0;
    for (int64_t c = 0; c < nodes.cols(); ++c) acc += double(row[c]) * row[c];
    return static_cast<float>(std::sqrt(acc));
  };
  const float* query = nodes.Row(num_users + item);
  std::vector<ScoredItem> all;
  for (int64_t other = 0; other < num_items; ++other) {
    if (other == item) continue;
    const float* row = nodes.Row(num_users + other);
    float dot = 0.0f;
    for (int64_t c = 0; c < nodes.cols(); ++c) dot += query[c] * row[c];
    const double denom = static_cast<double>(norm(item)) * norm(other);
    all.push_back(
        {other, denom > 1e-12 ? static_cast<float>(dot / denom) : 0.0f});
  }
  std::sort(all.begin(), all.end(), RanksBefore());
  all.resize(std::min<size_t>(all.size(), static_cast<size_t>(k)));
  return all;
}

TEST(TopKEngineConsumerTest, SimilarItemsBitwiseEqualToNaiveCosine) {
  data::Dataset ds = MakeRandomDataset(6, 70, 5, 60);
  Matrix nodes = RandomNodes(ds.num_nodes(), 7, 61);
  // A zero item row exercises the degenerate-denominator branch.
  for (int64_t c = 0; c < nodes.cols(); ++c) nodes(ds.num_users() + 40, c) = 0.0f;
  auto rec = serve::Recommender::Create(nodes, &ds);
  ASSERT_TRUE(rec.ok());
  for (int64_t item : {0, 31, 32, 40, 69}) {
    for (int64_t k : {1, 10, 69, 100}) {
      SCOPED_TRACE("item " + std::to_string(item) + " k " + std::to_string(k));
      auto similar = rec->SimilarItems(item, k);
      ASSERT_TRUE(similar.ok());
      ExpectListsEqual(*similar, NaiveSimilarItems(nodes, ds.num_users(),
                                                   ds.num_items(), item, k));
    }
  }
}

// ---------------------------------------------------------------------------
// Seen lists with duplicate ids. Training stores keep interaction replay
// order and accept a repeated item; consumers sort such a row without
// deduplicating it, so {5, 2, 2} reaches the engine as 2 2 5. Every id in
// the list must still be masked, and the result must equal that of the
// deduplicated row.
// ---------------------------------------------------------------------------

class DuplicateSeenIdsTest : public ::testing::Test {
 protected:
  static constexpr int64_t kUsers = 2;
  static constexpr int64_t kItems = 8;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/topk_dup_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    // User 0 ranks items 5 > 2 > 7 > the rest; user 1 ranks 1 > 3 > the
    // rest.
    nodes_ = Matrix(kUsers + kItems, 2);
    nodes_(0, 0) = 1.0f;
    nodes_(1, 1) = 1.0f;
    for (int64_t i = 0; i < kItems; ++i) {
      nodes_(kUsers + i, 0) = -static_cast<float>(i);
      nodes_(kUsers + i, 1) = -static_cast<float>(i);
    }
    nodes_(kUsers + 5, 0) = 9.0f;
    nodes_(kUsers + 2, 0) = 8.0f;
    nodes_(kUsers + 7, 0) = 7.0f;
    nodes_(kUsers + 1, 1) = 9.0f;
    nodes_(kUsers + 3, 1) = 8.0f;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes one row per user into a single-shard store and opens it.
  data::ShardedInteractions WriteStore(
      const std::string& stem, const std::vector<std::vector<int64_t>>& rows,
      bool rows_sorted) {
    data::ShardWriter::Options options;
    options.rows_sorted = rows_sorted;
    auto writer = data::ShardWriter::Create(dir_, stem, kUsers, kItems, options);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    for (const auto& row : rows) EXPECT_TRUE(writer->AppendRow(row).ok());
    auto manifest = writer->Finalize();
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    auto store = data::ShardedInteractions::Open(*manifest);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  std::string dir_;
  Matrix nodes_;
};

TEST_F(DuplicateSeenIdsTest, CreateFromStoreMasksEveryIdAfterADuplicate) {
  const auto store = WriteStore("train", {{5, 2, 2}, {1}}, false);
  const auto dedup = WriteStore("dedup", {{2, 5}, {1}}, true);
  auto snapshot = serve::ModelSnapshot::CreateFromStore(nodes_, store);
  auto dedup_snapshot = serve::ModelSnapshot::CreateFromStore(nodes_, dedup);
  ASSERT_TRUE(snapshot.ok() && dedup_snapshot.ok());
  const topk::ItemSpan seen0 = (*snapshot)->SeenOf(0);
  ASSERT_EQ(seen0.count, 3u);  // the duplicate survives the sort: 2 2 5
  EXPECT_EQ(seen0[0], 2);
  EXPECT_EQ(seen0[1], 2);
  EXPECT_EQ(seen0[2], 5);

  const auto ranked = [](const serve::ModelSnapshot& s) {
    const SeenItemsFn seen = [&s](int64_t u) { return s.SeenOf(u); };
    return s.engine().TopK({0, 1}, kItems, seen, MaskMode::kDrop);
  };
  const auto lists = ranked(**snapshot);
  const auto expected = ranked(**dedup_snapshot);
  ASSERT_EQ(lists[0].size(), static_cast<size_t>(kItems - 2));
  for (const ScoredItem& s : lists[0]) {
    EXPECT_NE(s.item, 5);
    EXPECT_NE(s.item, 2);
  }
  EXPECT_EQ(lists[0].front().item, 7);
  for (size_t u = 0; u < lists.size(); ++u) {
    ExpectListsEqual(lists[u], expected[u]);
  }
}

TEST_F(DuplicateSeenIdsTest, StoreEvaluateRankingMasksEveryIdAfterADuplicate) {
  const auto train = WriteStore("train", {{5, 2, 2}, {1}}, false);
  const auto dedup = WriteStore("dedup", {{2, 5}, {1}}, true);
  const auto heldout = WriteStore("heldout", {{7}, {3}}, true);
  eval::EvalOptions options;
  options.ks = {1, 3};
  const eval::MetricSet metrics =
      eval::EvaluateRanking(nodes_, train, heldout, options);
  // Masked at -inf, items 5 and 2 cannot take user 0's top spot from 7.
  EXPECT_EQ(metrics.recall.at(1), 1.0);
  ExpectMetricsBitwiseEqual(metrics,
                            eval::EvaluateRanking(nodes_, dedup, heldout,
                                                  options));
}

}  // namespace
}  // namespace darec::topk
