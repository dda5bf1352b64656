#include "data/shards.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/serialize.h"
#include "core/crc32.h"
#include "core/rng.h"
#include "core/status.h"
#include "data/dataset.h"
#include "data/interactions.h"
#include "data/presets.h"
#include "data/sampler.h"
#include "eval/metrics.h"
#include "graph/bipartite.h"
#include "gtest/gtest.h"
#include "tensor/alloc_stats.h"
#include "tensor/init.h"
#include "test_util.h"

namespace darec::data {
namespace {

namespace fs = std::filesystem;

class ShardsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/shards_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    tensor::AllocStats::SetEnabled(false);
    fs::remove_all(dir_);
  }

  std::string dir_;
};

Dataset TinyDataset() {
  auto dataset = LoadPresetDataset("tiny");
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *std::move(dataset);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reads every row of `store` through its block interface.
std::vector<std::vector<int64_t>> MaterializeRows(const InteractionStore& store) {
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(store.num_users()));
  for (int64_t b = 0; b < store.num_blocks(); ++b) {
    auto view = store.FetchBlock(b);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    for (int64_t r = view->row_begin; r < view->row_end; ++r) {
      const auto row = view->Row(r);
      rows[static_cast<size_t>(r)].assign(row.begin(), row.end());
    }
  }
  return rows;
}

TEST_F(ShardsTest, TrainRoundTripMatchesResidentStore) {
  const Dataset dataset = TinyDataset();
  auto manifest = WriteShardedTrain(dataset, dir_, "train", /*rows_per_shard=*/32);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  auto store = ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ResidentInteractions resident =
      ResidentInteractions::FromTrainSplit(dataset);

  EXPECT_EQ(store->num_users(), resident.num_users());
  EXPECT_EQ(store->num_items(), resident.num_items());
  EXPECT_EQ(store->nnz(), resident.nnz());
  EXPECT_FALSE(store->rows_sorted());
  EXPECT_EQ(store->num_blocks(), (dataset.num_users() + 31) / 32);

  // Block metadata tiles [0, num_users) and nnz sums to the total.
  int64_t covered = 0;
  int64_t nnz = 0;
  for (int64_t b = 0; b < store->num_blocks(); ++b) {
    EXPECT_EQ(store->block_row_begin(b), covered);
    covered = store->block_row_end(b);
    nnz += store->block_nnz(b);
  }
  EXPECT_EQ(covered, store->num_users());
  EXPECT_EQ(nnz, store->nnz());

  EXPECT_EQ(MaterializeRows(*store), MaterializeRows(resident));
}

TEST_F(ShardsTest, HeldoutRoundTripIsSortedAndComplete) {
  const Dataset dataset = TinyDataset();
  auto manifest = WriteShardedHeldout(dataset, HeldoutSplit::kTest, dir_,
                                      "heldout", /*rows_per_shard=*/50);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  auto store = ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->rows_sorted());

  const auto rows = MaterializeRows(*store);
  for (int64_t user = 0; user < dataset.num_users(); ++user) {
    const std::vector<int64_t>& expected = dataset.TestItemsOfUser(user);
    EXPECT_EQ(rows[static_cast<size_t>(user)], expected) << "user " << user;
  }
}

TEST_F(ShardsTest, WriterRejectsBadRows) {
  ShardWriter::Options options;
  options.rows_per_shard = 4;
  auto writer = ShardWriter::Create(dir_, "bad", /*num_users=*/3,
                                    /*num_items=*/10, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<int64_t> out_of_range = {10};
  EXPECT_EQ(writer->AppendRow(out_of_range).code(),
            core::StatusCode::kInvalidArgument);
  // Too few rows at Finalize.
  const std::vector<int64_t> ok_row = {1, 2};
  ASSERT_TRUE(writer->AppendRow(ok_row).ok());
  EXPECT_EQ(writer->Finalize().status().code(),
            core::StatusCode::kFailedPrecondition);
}

TEST_F(ShardsTest, SortedWriterRejectsUnsortedRow) {
  ShardWriter::Options options;
  options.rows_sorted = true;
  auto writer = ShardWriter::Create(dir_, "sorted", /*num_users=*/2,
                                    /*num_items=*/10, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<int64_t> unsorted = {5, 3};
  EXPECT_EQ(writer->AppendRow(unsorted).code(),
            core::StatusCode::kInvalidArgument);
  const std::vector<int64_t> duplicate = {3, 3};
  EXPECT_EQ(writer->AppendRow(duplicate).code(),
            core::StatusCode::kInvalidArgument);
}

TEST_F(ShardsTest, MissingManifestIsNotFound) {
  EXPECT_EQ(ShardedInteractions::Open(dir_ + "/absent.dsm").status().code(),
            core::StatusCode::kNotFound);
}

/// Builds a small two-shard store directly through the writer; used by the
/// corruption sweeps (small files keep the exhaustive bit-flip loop fast).
std::string WriteSmallStore(const std::string& dir) {
  ShardWriter::Options options;
  options.rows_per_shard = 5;
  auto writer = ShardWriter::Create(dir, "small", /*num_users=*/9,
                                    /*num_items=*/50, options);
  EXPECT_TRUE(writer.ok());
  core::Rng rng(11);
  for (int64_t user = 0; user < 9; ++user) {
    std::vector<int64_t> row;
    const int64_t degree = rng.UniformInt(5);
    for (int64_t i = 0; i < degree; ++i) row.push_back(rng.UniformInt(50));
    EXPECT_TRUE(writer->AppendRow(row).ok());
  }
  auto manifest = writer->Finalize();
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return *manifest;
}

TEST_F(ShardsTest, EveryManifestBitFlipDetected) {
  const std::string manifest_path = WriteSmallStore(dir_);
  const std::string pristine = ReadAll(manifest_path);
  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto mask = static_cast<unsigned char>(1 << bit);
      darec::testing::FlipByteInPlace(manifest_path, byte, mask);
      auto store = ShardedInteractions::Open(manifest_path);
      EXPECT_FALSE(store.ok())
          << "flip of bit " << bit << " in manifest byte " << byte
          << " went undetected";
      darec::testing::FlipByteInPlace(manifest_path, byte, mask);
    }
  }
}

TEST_F(ShardsTest, EveryShardFileBitFlipDetected) {
  const std::string manifest_path = WriteSmallStore(dir_);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string path = entry.path().string();
    if (path.size() < 4 || path.compare(path.size() - 4, 4, ".dsh") != 0) {
      continue;
    }
    const std::string pristine = ReadAll(path);
    for (size_t byte = 0; byte < pristine.size(); ++byte) {
      // One flip per byte keeps the sweep linear; the CRC math does not
      // care which bit of the byte flips.
      darec::testing::FlipByteInPlace(path, byte, 0x10);
      auto store = ShardedInteractions::Open(manifest_path);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      bool detected = false;
      for (int64_t b = 0; b < store->num_blocks(); ++b) {
        if (!store->FetchBlock(b).ok()) detected = true;
      }
      EXPECT_TRUE(detected) << "flip in byte " << byte << " of "
                            << entry.path().filename() << " went undetected";
      darec::testing::FlipByteInPlace(path, byte, 0x10);
    }
  }
}

/// Serializes a hand-crafted manifest (valid framing, attacker-controlled
/// content) so Open's per-field validation can be probed line by line.
struct FakeShard {
  std::string filename;
  int64_t row_begin;
  int64_t row_end;
  int64_t nnz;
  uint64_t file_size;
};

std::string CraftManifest(const std::string& dir, int64_t num_users,
                          int64_t num_items, int64_t total_nnz,
                          const std::vector<FakeShard>& shards) {
  ckpt::ByteWriter content;
  content.PutU32(1);  // version
  content.PutU8(0);   // rows_sorted
  content.PutI64(num_users);
  content.PutI64(num_items);
  content.PutI64(total_nnz);
  content.PutU32(static_cast<uint32_t>(shards.size()));
  for (const FakeShard& shard : shards) {
    content.PutString(shard.filename);
    content.PutI64(shard.row_begin);
    content.PutI64(shard.row_end);
    content.PutI64(shard.nnz);
    content.PutU64(shard.file_size);
    content.PutU32(0);  // file crc (never reached by manifest validation)
  }
  ckpt::ByteWriter manifest;
  manifest.PutBytes("DSM1");
  manifest.PutU32(core::Crc32(content.str()));
  manifest.PutBytes(content.str());
  const std::string path = dir + "/crafted.dsm";
  WriteAll(path, manifest.str());
  return path;
}

uint64_t PlausibleSize(int64_t rows, int64_t nnz) {
  return 40 + static_cast<uint64_t>(rows + 1 + nnz) * 8;
}

TEST_F(ShardsTest, ManifestValidationRejectsMalformedShardTables) {
  fs::create_directories(dir_);
  const int64_t users = 10, items = 5;

  struct Case {
    const char* what;
    std::vector<FakeShard> shards;
    int64_t total_nnz;
  };
  const std::vector<Case> cases = {
      {"row-range overlap",
       {{"a.dsh", 0, 6, 3, PlausibleSize(6, 3)},
        {"b.dsh", 4, 10, 3, PlausibleSize(6, 3)}},
       6},
      {"row-range gap",
       {{"a.dsh", 0, 4, 3, PlausibleSize(4, 3)},
        {"b.dsh", 6, 10, 3, PlausibleSize(4, 3)}},
       6},
      {"coverage shortfall",
       {{"a.dsh", 0, 4, 3, PlausibleSize(4, 3)}},
       3},
      {"empty row range", {{"a.dsh", 4, 4, 0, PlausibleSize(0, 0)}}, 0},
      {"range outside num_users",
       {{"a.dsh", 0, 12, 3, PlausibleSize(12, 3)}},
       3},
      {"negative nnz", {{"a.dsh", 0, 10, -1, PlausibleSize(10, 0)}}, 0},
      {"path traversal in filename",
       {{"../evil.dsh", 0, 10, 3, PlausibleSize(10, 3)}},
       3},
      {"empty filename", {{"", 0, 10, 3, PlausibleSize(10, 3)}}, 3},
      {"nnz sum mismatch",
       {{"a.dsh", 0, 10, 3, PlausibleSize(10, 3)}},
       4},
      {"file size mismatch", {{"a.dsh", 0, 10, 3, 17}}, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string path =
        CraftManifest(dir_, users, items, c.total_nnz, c.shards);
    auto store = ShardedInteractions::Open(path);
    EXPECT_FALSE(store.ok()) << "accepted manifest with " << c.what;
    EXPECT_EQ(store.status().code(), core::StatusCode::kInvalidArgument);
  }

  // Control: the same machinery accepts a well-formed table, so the
  // rejections above are the validators firing, not framing accidents.
  const std::string good = CraftManifest(
      dir_, users, items, 6,
      {{"a.dsh", 0, 6, 3, PlausibleSize(6, 3)},
       {"b.dsh", 6, 10, 3, PlausibleSize(4, 3)}});
  auto store = ShardedInteractions::Open(good);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
}

TEST_F(ShardsTest, OneShardIteratorIsBitIdenticalToResident) {
  const Dataset dataset = TinyDataset();
  auto manifest = WriteShardedTrain(dataset, dir_, "train",
                                    /*rows_per_shard=*/dataset.num_users());
  ASSERT_TRUE(manifest.ok());
  auto store = ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store->num_blocks(), 1);

  core::Rng rng_a(42), rng_b(42);
  BatchIterator legacy(dataset, /*batch_size=*/64, rng_a);
  BatchIterator streamed(*store, /*batch_size=*/64, rng_b);
  ASSERT_EQ(streamed.batches_per_epoch(), legacy.batches_per_epoch());

  std::vector<TrainTriple> batch_a, batch_b;
  for (int epoch = 0; epoch < 2; ++epoch) {
    while (true) {
      const bool more_a = legacy.NextBatch(batch_a, rng_a);
      const bool more_b = streamed.NextBatch(batch_b, rng_b);
      ASSERT_EQ(more_a, more_b);
      if (!more_a) break;
      ASSERT_EQ(batch_a.size(), batch_b.size());
      for (size_t i = 0; i < batch_a.size(); ++i) {
        EXPECT_EQ(batch_a[i].user, batch_b[i].user);
        EXPECT_EQ(batch_a[i].pos_item, batch_b[i].pos_item);
        EXPECT_EQ(batch_a[i].neg_item, batch_b[i].neg_item);
      }
    }
    legacy.NewEpoch(rng_a);
    streamed.NewEpoch(rng_b);
  }
}

TEST_F(ShardsTest, MultiShardIteratorCoversEveryInteractionOnce) {
  const Dataset dataset = TinyDataset();
  auto manifest = WriteShardedTrain(dataset, dir_, "train", /*rows_per_shard=*/16);
  ASSERT_TRUE(manifest.ok());
  auto store = ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok());
  ASSERT_GT(store->num_blocks(), 1);

  core::Rng rng(7);
  BatchIterator iterator(*store, /*batch_size=*/64, rng);
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<Interaction> seen;
    std::vector<TrainTriple> batch;
    int64_t batches = 0;
    while (iterator.NextBatch(batch, rng)) {
      ++batches;
      for (const TrainTriple& t : batch) {
        seen.push_back({t.user, t.pos_item});
        // The negative really is un-observed for this user.
        const auto& positives = dataset.TrainItemsOfUser(t.user);
        EXPECT_FALSE(std::binary_search(positives.begin(), positives.end(),
                                        t.neg_item));
      }
    }
    EXPECT_EQ(batches, iterator.batches_per_epoch());
    // Each epoch touches every (user, pos) pair exactly once.
    std::vector<Interaction> expected = dataset.train();
    auto key = [](const Interaction& a, const Interaction& b) {
      return a.user != b.user ? a.user < b.user : a.item < b.item;
    };
    std::sort(seen.begin(), seen.end(), key);
    std::sort(expected.begin(), expected.end(), key);
    EXPECT_EQ(seen, expected);
    iterator.NewEpoch(rng);
  }
}

TEST_F(ShardsTest, SteadyStateEpochMakesNoTrackedAllocations) {
  const Dataset dataset = TinyDataset();
  auto manifest = WriteShardedTrain(dataset, dir_, "train", /*rows_per_shard=*/16);
  ASSERT_TRUE(manifest.ok());
  auto store = ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok());

  core::Rng rng(3);
  BatchIterator iterator(*store, /*batch_size=*/64, rng);
  std::vector<TrainTriple> batch;
  batch.reserve(64);
  // Warm epoch: buffers grow to their steady-state capacity.
  while (iterator.NextBatch(batch, rng)) {
  }
  iterator.NewEpoch(rng);

  // Steady state: a full streamed epoch reuses every buffer — zero tracked
  // allocations, which is what makes the iterator O(block) resident instead
  // of re-materializing a full-dataset permutation each epoch.
  tensor::AllocStats::SetEnabled(true);
  tensor::AllocStats::Reset();
  while (iterator.NextBatch(batch, rng)) {
  }
  iterator.NewEpoch(rng);
  const auto snapshot = tensor::AllocStats::Take();
  tensor::AllocStats::SetEnabled(false);
  EXPECT_EQ(snapshot.allocations, 0)
      << "steady-state epoch allocated " << snapshot.bytes << " bytes";
}

TEST_F(ShardsTest, StreamedEvaluationMatchesDatasetEvaluationBitwise) {
  const Dataset dataset = TinyDataset();
  auto train_manifest =
      WriteShardedTrain(dataset, dir_, "train", /*rows_per_shard=*/16);
  auto heldout_manifest = WriteShardedHeldout(dataset, HeldoutSplit::kTest, dir_,
                                              "heldout", /*rows_per_shard=*/28);
  ASSERT_TRUE(train_manifest.ok());
  ASSERT_TRUE(heldout_manifest.ok());
  auto train = ShardedInteractions::Open(*train_manifest);
  auto heldout = ShardedInteractions::Open(*heldout_manifest);
  ASSERT_TRUE(train.ok());
  ASSERT_TRUE(heldout.ok());

  core::Rng rng(5);
  const tensor::Matrix embeddings =
      tensor::RandomNormal(dataset.num_nodes(), 16, 0.1f, rng);
  const eval::MetricSet resident = eval::EvaluateRanking(embeddings, dataset);
  const eval::MetricSet streamed =
      eval::EvaluateRanking(embeddings, *train, *heldout);
  for (int64_t k : {5, 10, 20}) {
    EXPECT_EQ(streamed.recall.at(k), resident.recall.at(k)) << "k=" << k;
    EXPECT_EQ(streamed.ndcg.at(k), resident.ndcg.at(k)) << "k=" << k;
    EXPECT_EQ(streamed.precision.at(k), resident.precision.at(k)) << "k=" << k;
    EXPECT_EQ(streamed.mrr.at(k), resident.mrr.at(k)) << "k=" << k;
  }
}

TEST_F(ShardsTest, GraphFromStoreMatchesGraphFromDataset) {
  const Dataset dataset = TinyDataset();
  auto manifest = WriteShardedTrain(dataset, dir_, "train", /*rows_per_shard=*/16);
  ASSERT_TRUE(manifest.ok());
  auto store = ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok());

  const graph::BipartiteGraph from_dataset(dataset);
  const graph::BipartiteGraph from_store(*store);
  EXPECT_EQ(from_store.num_edges(), from_dataset.num_edges());
  EXPECT_EQ(from_store.edges(), from_dataset.edges());
  const auto& a = *from_dataset.normalized_adjacency();
  const auto& b = *from_store.normalized_adjacency();
  EXPECT_EQ(b.row_ptr(), a.row_ptr());
  EXPECT_EQ(b.col_idx(), a.col_idx());
  EXPECT_EQ(b.values(), a.values());
}

}  // namespace
}  // namespace darec::data
