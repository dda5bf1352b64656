// Golden-trace parity: the staged train loop (TrainStep + policies +
// observers) must reproduce the pre-refactor monolithic trainer bit for
// bit. The traces below were dumped from the last monolithic build — epoch
// losses and final metrics as uint64 bit patterns, checkpoint files as
// size + CRC-32 — and must never drift, at any thread count. A change here
// is a behavior change, not a refactor.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/cpu_features.h"
#include "core/crc32.h"
#include "core/thread_pool.h"
#include "data/presets.h"
#include "data/shards.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"

namespace darec::pipeline {
namespace {

namespace fs = std::filesystem;

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

ExperimentSpec GoldenSpec(const std::string& variant) {
  ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = "lightgcn";
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 5;
  spec.train_options.batch_size = 256;
  spec.llm_options.output_dim = 24;
  spec.llm_options.hidden_dim = 32;
  spec.rlmrec_options.sample_size = 64;
  spec.darec_options.sample_size = 64;
  spec.darec_options.uniformity_sample = 32;
  spec.darec_options.projection_dim = 16;
  spec.darec_options.hidden_dim = 24;
  spec.darec_options.kmeans_iterations = 5;
  return spec;
}

struct GoldenTrace {
  std::string variant;
  bool early_stopping;
  std::vector<uint64_t> epoch_loss_bits;
  uint64_t recall20_bits;
  uint64_t ndcg20_bits;
};

// Frozen from the pre-refactor trainer (identical at 1 and 8 threads).
const std::vector<GoldenTrace>& Traces() {
  static const std::vector<GoldenTrace> traces{
      {"baseline",
       /*early_stopping=*/true,
       {0x3fe61d0de0000000ull,   // 0.69104665517807007
        0x3fe61c8270000000ull,   // 0.69098016619682312
        0x3fe61899a0000000ull,   // 0.69050294160842896
        0x3fe615e770000000ull,   // 0.69017383456230164
        0x3fe6161438000000ull},  // 0.69019518792629242
       0x3fd08cb1275308c9ull,    // recall@20 = 0.25858715858715847
       0x3fbb280d237c1694ull},   // ndcg@20   = 0.10607988468481216
      {"darec",
       /*early_stopping=*/false,
       {0x3fccc723c0000000ull,   // 0.22482725977897644
        0x3fc9aa70c0000000ull,   // 0.20051392912864685
        0x3fc7e0aea0000000ull,   // 0.18654425442218781
        0x3fc265b1b0000000ull,   // 0.14372845739126205
        0x3fbb492ae0000000ull},  // 0.10658519715070724
       0x3fd06cb612e006caull,    // recall@20 = 0.25663520663520656
       0x3fbcfe70b34a5473ull},   // ndcg@20   = 0.11325744988637769
  };
  return traces;
}

class GoldenTraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
    core::SetSimdLevelForTest(core::SimdLevelFromEnvOrDie());
  }
};

void ExpectMatchesTrace(const TrainResult& result, const GoldenTrace& golden) {
  ASSERT_EQ(result.epoch_losses.size(), golden.epoch_loss_bits.size());
  for (size_t i = 0; i < golden.epoch_loss_bits.size(); ++i) {
    EXPECT_EQ(Bits(result.epoch_losses[i]), golden.epoch_loss_bits[i])
        << "epoch " << i + 1 << " loss drifted: " << result.epoch_losses[i];
  }
  EXPECT_EQ(Bits(result.test_metrics.recall.at(20)), golden.recall20_bits)
      << "recall@20 drifted: " << result.test_metrics.recall.at(20);
  EXPECT_EQ(Bits(result.test_metrics.ndcg.at(20)), golden.ndcg20_bits)
      << "ndcg@20 drifted: " << result.test_metrics.ndcg.at(20);
}

TEST_F(GoldenTraceTest, LossesAndMetricsMatchPreRefactorTrainer) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::ThreadPool::SetGlobalThreads(threads);
    for (const GoldenTrace& golden : Traces()) {
      SCOPED_TRACE("variant=" + golden.variant);
      ExperimentSpec spec = GoldenSpec(golden.variant);
      if (golden.early_stopping) {
        spec.train_options.eval_every = 2;  // Exercises the early-stop path.
        spec.train_options.patience = 10;
      }
      auto experiment = Experiment::Create(spec);
      ASSERT_TRUE(experiment.ok());
      const TrainResult result = (*experiment)->Run();
      ExpectMatchesTrace(result, golden);
    }
  }
}

/// Every compiled SIMD tier reproduces the frozen traces: the runtime-
/// dispatched kernels are an execution-policy choice, never a numerics one.
/// The traces were frozen on a scalar-only build, so passing under avx2 and
/// avx512 proves the wider tiers bit-exact end to end.
TEST_F(GoldenTraceTest, EverySimdTierReproducesTheFrozenTraces) {
  for (core::SimdLevel level : {core::SimdLevel::kScalar, core::SimdLevel::kAvx2,
                                core::SimdLevel::kAvx512}) {
    if (level > core::HardwareSimdLevel()) continue;
    SCOPED_TRACE(std::string("simd=") + core::SimdLevelName(level));
    core::SetSimdLevelForTest(level);
    for (const GoldenTrace& golden : Traces()) {
      SCOPED_TRACE("variant=" + golden.variant);
      ExperimentSpec spec = GoldenSpec(golden.variant);
      if (golden.early_stopping) {
        spec.train_options.eval_every = 2;
        spec.train_options.patience = 10;
      }
      auto experiment = Experiment::Create(spec);
      ASSERT_TRUE(experiment.ok());
      ExpectMatchesTrace((*experiment)->Run(), golden);
    }
  }
}

/// The data-parallel executor's contract, proven on the golden workload:
/// at grad_accum=8, runs with 1 and 8 workers are bitwise interchangeable —
/// same losses, same metrics, same final embedding bits. (The grouped
/// trajectory itself legitimately differs from the frozen serial traces:
/// one mean-gradient update per 8 batches is a different optimizer
/// schedule, which is why the groups compare against each other and the
/// serial path keeps its own frozen traces above.)
TEST_F(GoldenTraceTest, DataParallelWorkersMatchSingleWorkerBitwise) {
  for (const GoldenTrace& golden : Traces()) {
    SCOPED_TRACE("variant=" + golden.variant);
    ExperimentSpec spec = GoldenSpec(golden.variant);
    spec.train_options.grad_accum = 8;

    spec.train_options.workers = 1;
    auto one = Experiment::Create(spec);
    ASSERT_TRUE(one.ok());
    const TrainResult serial = (*one)->Run();

    spec.train_options.workers = 8;
    auto eight = Experiment::Create(spec);
    ASSERT_TRUE(eight.ok());
    const TrainResult parallel = (*eight)->Run();

    ASSERT_EQ(parallel.epoch_losses.size(), serial.epoch_losses.size());
    for (size_t i = 0; i < serial.epoch_losses.size(); ++i) {
      EXPECT_EQ(Bits(parallel.epoch_losses[i]), Bits(serial.epoch_losses[i]))
          << "epoch " << i + 1 << " loss differs across worker counts";
    }
    EXPECT_EQ(Bits(parallel.test_metrics.recall.at(20)),
              Bits(serial.test_metrics.recall.at(20)));
    EXPECT_EQ(Bits(parallel.test_metrics.ndcg.at(20)),
              Bits(serial.test_metrics.ndcg.at(20)));
    ASSERT_TRUE(
        parallel.final_embeddings.SameShape(serial.final_embeddings));
    for (int64_t i = 0; i < serial.final_embeddings.size(); ++i) {
      ASSERT_EQ(parallel.final_embeddings.data()[i],
                serial.final_embeddings.data()[i])
          << "embedding element " << i << " differs across worker counts";
    }
  }
}

/// Checkpoint bytes are part of the frozen contract: the DCKP files a run
/// writes must be byte-identical to the pre-refactor ones (same section
/// layout, same serialized state), pinned here as size + CRC-32.
TEST_F(GoldenTraceTest, CheckpointBytesMatchPreRefactorTrainer) {
  struct GoldenFile {
    const char* name;
    size_t size;
    uint32_t crc;
  };
  // keep_last_checkpoints=3 rotates the step-0 file away by the end.
  const std::vector<GoldenFile> golden_files{
      {"ckpt-000000000001.dckp", 66747, 0x42c5e38e},
      {"ckpt-000000000002.dckp", 80835, 0x8964857a},
      {"ckpt-000000000003.dckp", 80843, 0x65bdb4a0},
  };

  const std::string dir = ::testing::TempDir() + "/golden_trace_ckpt";
  fs::remove_all(dir);
  core::ThreadPool::SetGlobalThreads(1);

  ExperimentSpec spec = GoldenSpec("darec");
  spec.train_options.epochs = 3;
  spec.train_options.eval_every = 2;
  spec.train_options.patience = 10;
  spec.train_options.checkpoint_dir = dir;
  spec.train_options.checkpoint_every = 1;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  (*experiment)->Run();

  size_t files_on_disk = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files_on_disk;
  }
  EXPECT_EQ(files_on_disk, golden_files.size());

  for (const GoldenFile& golden : golden_files) {
    SCOPED_TRACE(golden.name);
    std::ifstream in(dir + "/" + golden.name, std::ios::binary);
    ASSERT_TRUE(in.good()) << "expected checkpoint file missing";
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), golden.size);
    EXPECT_EQ(core::Crc32(bytes), golden.crc);
  }
  fs::remove_all(dir);
}

/// Checkpoints never encode the worker count: at the same grad_accum, runs
/// with 1 and 8 workers write byte-identical DCKP files, so a sweep can be
/// checkpointed on a laptop and resumed on a many-core box (or vice versa).
TEST_F(GoldenTraceTest, CheckpointBytesAreWorkerCountIndependent) {
  struct FileDigest {
    std::string name;
    size_t size;
    uint32_t crc;
  };
  auto digest_run = [](const std::string& dir, int workers) {
    ExperimentSpec spec = GoldenSpec("darec");
    spec.train_options.epochs = 3;
    spec.train_options.grad_accum = 4;
    spec.train_options.workers = workers;
    spec.train_options.checkpoint_dir = dir;
    spec.train_options.checkpoint_every = 1;
    auto experiment = Experiment::Create(spec);
    EXPECT_TRUE(experiment.ok());
    (*experiment)->Run();

    std::vector<FileDigest> digests;
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      digests.push_back({entry.path().filename().string(), bytes.size(),
                         core::Crc32(bytes)});
    }
    std::sort(digests.begin(), digests.end(),
              [](const FileDigest& a, const FileDigest& b) {
                return a.name < b.name;
              });
    return digests;
  };

  const std::string base = ::testing::TempDir() + "/golden_trace_workers_ckpt";
  fs::remove_all(base + "_w1");
  fs::remove_all(base + "_w8");
  const std::vector<FileDigest> w1 = digest_run(base + "_w1", 1);
  const std::vector<FileDigest> w8 = digest_run(base + "_w8", 8);

  ASSERT_FALSE(w1.empty());
  ASSERT_EQ(w1.size(), w8.size());
  for (size_t i = 0; i < w1.size(); ++i) {
    SCOPED_TRACE(w1[i].name);
    EXPECT_EQ(w8[i].name, w1[i].name);
    EXPECT_EQ(w8[i].size, w1[i].size);
    EXPECT_EQ(w8[i].crc, w1[i].crc);
  }
  fs::remove_all(base + "_w1");
  fs::remove_all(base + "_w8");
}

/// The streaming data path is part of the frozen contract: training against
/// a one-shard memory-mapped ShardedInteractions store (spec.train_options.
/// train_store) must reproduce the golden traces bit for bit — the mmap'd
/// store and the resident Dataset path are interchangeable, not merely
/// approximately equal.
TEST_F(GoldenTraceTest, OneShardStreamedRunReproducesFrozenTraces) {
  const std::string dir = ::testing::TempDir() + "/golden_trace_streamed";
  fs::remove_all(dir);
  auto dataset = data::LoadPresetDataset("tiny");
  ASSERT_TRUE(dataset.ok());
  auto manifest = data::WriteShardedTrain(
      *dataset, dir, "train", /*rows_per_shard=*/dataset->num_users());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  auto store = data::ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store->num_blocks(), 1);

  for (const GoldenTrace& golden : Traces()) {
    SCOPED_TRACE("variant=" + golden.variant);
    ExperimentSpec spec = GoldenSpec(golden.variant);
    if (golden.early_stopping) {
      spec.train_options.eval_every = 2;
      spec.train_options.patience = 10;
    }
    spec.train_options.train_store = &*store;
    auto experiment = Experiment::Create(spec);
    ASSERT_TRUE(experiment.ok());
    ExpectMatchesTrace((*experiment)->Run(), golden);
  }
  fs::remove_all(dir);
}

/// Sharded checkpoints carry the exact same state as single-file ones: a
/// streamed run writing the DCKM layout must restore to bundles whose
/// serialized form is byte-identical to the frozen .dckp files above.
TEST_F(GoldenTraceTest, StreamedShardedCheckpointsCarryTheFrozenState) {
  struct GoldenFile {
    int64_t step;
    size_t size;
    uint32_t crc;
  };
  const std::vector<GoldenFile> golden_files{
      {1, 66747, 0x42c5e38e},
      {2, 80835, 0x8964857a},
      {3, 80843, 0x65bdb4a0},
  };

  const std::string dir = ::testing::TempDir() + "/golden_trace_sharded_ckpt";
  fs::remove_all(dir);
  core::ThreadPool::SetGlobalThreads(1);

  auto dataset = data::LoadPresetDataset("tiny");
  ASSERT_TRUE(dataset.ok());
  auto manifest = data::WriteShardedTrain(
      *dataset, dir + "/data", "train", /*rows_per_shard=*/dataset->num_users());
  ASSERT_TRUE(manifest.ok());
  auto store = data::ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok());

  ExperimentSpec spec = GoldenSpec("darec");
  spec.train_options.epochs = 3;
  spec.train_options.eval_every = 2;
  spec.train_options.patience = 10;
  spec.train_options.checkpoint_dir = dir + "/ckpt";
  spec.train_options.checkpoint_every = 1;
  spec.train_options.train_store = &*store;
  spec.train_options.sharded_checkpoints = true;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  (*experiment)->Run();

  ckpt::CheckpointManagerOptions manager_options;
  manager_options.dir = dir + "/ckpt";
  manager_options.sharded = true;
  ckpt::CheckpointManager manager(manager_options);
  const std::vector<ckpt::CheckpointEntry> entries = manager.List();
  ASSERT_EQ(entries.size(), golden_files.size());
  for (size_t i = 0; i < golden_files.size(); ++i) {
    SCOPED_TRACE("step=" + std::to_string(golden_files[i].step));
    EXPECT_EQ(entries[i].step, golden_files[i].step);
    EXPECT_TRUE(entries[i].sharded);
    auto bundle = manager.LoadPath(entries[i].path);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const std::string serialized = ckpt::SerializeBundle(*bundle);
    EXPECT_EQ(serialized.size(), golden_files[i].size);
    EXPECT_EQ(core::Crc32(serialized), golden_files[i].crc);
  }
  fs::remove_all(dir);
}

/// Streaming mode proper (many shards): the block-shuffled schedule is a
/// different—but equally frozen—function of the seed, so two identical runs
/// and every thread count must agree bit for bit, and resuming from a
/// sharded checkpoint must land on the uninterrupted trajectory.
TEST_F(GoldenTraceTest, MultiShardStreamedRunIsDeterministicAcrossThreads) {
  const std::string dir = ::testing::TempDir() + "/golden_trace_multishard";
  fs::remove_all(dir);
  auto dataset = data::LoadPresetDataset("tiny");
  ASSERT_TRUE(dataset.ok());
  auto manifest = data::WriteShardedTrain(*dataset, dir, "train",
                                          /*rows_per_shard=*/32);
  ASSERT_TRUE(manifest.ok());
  auto store = data::ShardedInteractions::Open(*manifest);
  ASSERT_TRUE(store.ok());
  ASSERT_GT(store->num_blocks(), 1);

  auto run = [&](int threads) {
    core::ThreadPool::SetGlobalThreads(threads);
    ExperimentSpec spec = GoldenSpec("darec");
    spec.train_options.train_store = &*store;
    auto experiment = Experiment::Create(spec);
    EXPECT_TRUE(experiment.ok());
    return (*experiment)->Run();
  };
  const TrainResult first = run(1);
  const TrainResult again = run(1);
  const TrainResult threaded = run(8);

  ASSERT_EQ(first.epoch_losses.size(), 5u);
  for (const TrainResult* other : {&again, &threaded}) {
    ASSERT_EQ(other->epoch_losses.size(), first.epoch_losses.size());
    for (size_t i = 0; i < first.epoch_losses.size(); ++i) {
      EXPECT_EQ(Bits(other->epoch_losses[i]), Bits(first.epoch_losses[i]))
          << "epoch " << i + 1;
    }
    EXPECT_EQ(Bits(other->test_metrics.recall.at(20)),
              Bits(first.test_metrics.recall.at(20)));
    EXPECT_EQ(Bits(other->test_metrics.ndcg.at(20)),
              Bits(first.test_metrics.ndcg.at(20)));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace darec::pipeline
