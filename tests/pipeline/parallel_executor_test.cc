#include "pipeline/parallel_executor.h"

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"

namespace darec::pipeline {
namespace {

namespace fs = std::filesystem;

class ParallelExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/parallel_executor_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    core::FailPoint::DisarmAll();
    core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
    fs::remove_all(dir_);
  }

  std::string dir_;
};

ExperimentSpec TinySpec(const std::string& backbone, const std::string& variant) {
  ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = backbone;
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 3;
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

void ExpectBitIdentical(const tensor::Matrix& a, const tensor::Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i << " differs";
  }
}

/// The executor contract: at a fixed grad_accum, the worker count is pure
/// execution policy — every loss, metric, and parameter bit is identical
/// whether the group's batches run serially on one thread or concurrently
/// on eight.
TEST_F(ParallelExecutorTest, WorkerCountNeverChangesResultsBitwise) {
  for (const std::string variant : {"baseline", "darec"}) {
    SCOPED_TRACE("variant=" + variant);
    ExperimentSpec spec = TinySpec("lightgcn", variant);
    spec.train_options.grad_accum = 4;

    spec.train_options.workers = 1;
    auto reference = Experiment::Create(spec);
    ASSERT_TRUE(reference.ok());
    const TrainResult expected = (*reference)->Run();
    ASSERT_FALSE(expected.epoch_losses.empty());

    for (int workers : {2, 4, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      spec.train_options.workers = workers;
      auto run = Experiment::Create(spec);
      ASSERT_TRUE(run.ok());
      const TrainResult got = (*run)->Run();

      ASSERT_EQ(got.epoch_losses.size(), expected.epoch_losses.size());
      for (size_t i = 0; i < expected.epoch_losses.size(); ++i) {
        ASSERT_EQ(got.epoch_losses[i], expected.epoch_losses[i])
            << "loss of epoch " << i + 1 << " differs";
      }
      ExpectBitIdentical(got.final_embeddings, expected.final_embeddings);
      ASSERT_EQ(got.test_metrics.recall, expected.test_metrics.recall);
      ASSERT_EQ(got.test_metrics.ndcg, expected.test_metrics.ndcg);
    }
  }
}

/// grad_accum without extra workers is the same super-step semantics run on
/// one thread — the degenerate case the parity tests compare against — and
/// must also round-trip through the ordinary Trainer facade.
TEST_F(ParallelExecutorTest, GradAccumAloneUsesSuperStepSemantics) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.workers = 1;
  spec.train_options.grad_accum = 2;
  auto accum = Experiment::Create(spec);
  ASSERT_TRUE(accum.ok());
  const TrainResult grouped = (*accum)->Run();

  // One mean-gradient update per group is a different optimization
  // trajectory than one update per batch; if these ever collide bitwise the
  // executor is silently falling back to the serial path.
  ExperimentSpec serial_spec = spec;
  serial_spec.train_options.grad_accum = 1;
  auto serial = Experiment::Create(serial_spec);
  ASSERT_TRUE(serial.ok());
  const TrainResult per_batch = (*serial)->Run();

  ASSERT_EQ(grouped.epoch_losses.size(), per_batch.epoch_losses.size());
  EXPECT_NE(grouped.epoch_losses.back(), per_batch.epoch_losses.back());
  EXPECT_TRUE(std::isfinite(grouped.epoch_losses.back()));
}

/// An exception thrown inside a worker (here: the aligner) must surface on
/// the calling thread as that same exception, not deadlock or crash.
class ThrowingAligner final : public align::Aligner {
 public:
  std::string name() const override { return "throwing"; }
  tensor::Variable Loss(const tensor::Variable&, core::Rng&) override {
    throw std::runtime_error("aligner boom");
  }
  std::vector<tensor::Variable> Params() override { return {}; }
};

TEST_F(ParallelExecutorTest, WorkerExceptionPropagatesToCaller) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  ThrowingAligner aligner;
  TrainOptions options = spec.train_options;
  options.workers = 2;
  options.grad_accum = 2;
  Trainer trainer(&(*experiment)->backbone(), &aligner,
                  &(*experiment)->dataset(), options);
  EXPECT_THROW(trainer.RunEpoch(), std::runtime_error);
}

/// Divergence guard: a non-finite loss in any slot abandons the whole
/// super-step before the Adam update — parameters and optimizer state are
/// untouched, exactly like the serial path's abort-before-apply.
TEST_F(ParallelExecutorTest, NonFiniteLossAbortsSuperStepBeforeAdam) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.workers = 4;
  spec.train_options.grad_accum = 4;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  Trainer& trainer = (*experiment)->trainer();

  const tensor::Matrix before = trainer.CurrentEmbeddings();
  core::FailPoint::Arm("trainer.nan_loss");
  const double loss = trainer.RunEpoch();
  core::FailPoint::DisarmAll();

  EXPECT_TRUE(std::isnan(loss));
  EXPECT_EQ(trainer.optimizer().step_count(), 0);
  ExpectBitIdentical(trainer.CurrentEmbeddings(), before);

  // The trainer is not poisoned: once the fail point is gone, the same
  // instance trains normally.
  EXPECT_TRUE(std::isfinite(trainer.RunEpoch()));
  EXPECT_GT(trainer.optimizer().step_count(), 0);
}

/// Checkpoint/resume is worker-count independent: a run checkpointed under
/// one worker count and resumed under another finishes bit-identically to
/// an uninterrupted run at a third.
TEST_F(ParallelExecutorTest, ResumeAcrossWorkerCountsMatchesStraightRun) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.epochs = 6;
  spec.train_options.eval_every = 2;
  spec.train_options.patience = 10;
  spec.train_options.grad_accum = 4;

  spec.train_options.workers = 4;
  auto straight = Experiment::Create(spec);
  ASSERT_TRUE(straight.ok());
  const TrainResult expected = (*straight)->Run();

  ExperimentSpec head_spec = spec;
  head_spec.train_options.workers = 1;
  head_spec.train_options.epochs = 3;
  head_spec.train_options.checkpoint_dir = dir_;
  head_spec.train_options.checkpoint_every = 1;
  auto head = Experiment::Create(head_spec);
  ASSERT_TRUE(head.ok());
  (*head)->Run();

  ExperimentSpec tail_spec = spec;
  tail_spec.train_options.workers = 8;
  tail_spec.train_options.checkpoint_dir = dir_;
  tail_spec.train_options.checkpoint_every = 1;
  auto tail = Experiment::Create(tail_spec);
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE((*tail)->trainer().RestoreCheckpoint().ok());
  EXPECT_EQ((*tail)->trainer().epochs_completed(), 3);
  const TrainResult resumed = (*tail)->Run();

  ASSERT_EQ(resumed.epoch_losses.size(), expected.epoch_losses.size());
  for (size_t i = 0; i < expected.epoch_losses.size(); ++i) {
    ASSERT_EQ(resumed.epoch_losses[i], expected.epoch_losses[i])
        << "loss of epoch " << i + 1 << " differs";
  }
  ExpectBitIdentical(resumed.final_embeddings, expected.final_embeddings);
  ASSERT_EQ(resumed.test_metrics.recall, expected.test_metrics.recall);
}

/// Backbones that cache per-step state inside Forward (NCL's layer outputs)
/// cannot run concurrent slots; the executor refuses instead of racing.
TEST_F(ParallelExecutorTest, StatefulBackboneRejectsConcurrentWorkers) {
  ExperimentSpec spec = TinySpec("ncl", "baseline");
  spec.train_options.workers = 2;
  // Earlier tests leave pool threads running; "threadsafe" re-executes the
  // binary for the death test instead of forking a multi-threaded process
  // (which TSan refuses).
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        auto experiment = Experiment::Create(spec);
        if (experiment.ok()) (*experiment)->Run();
      },
      "cannot run");
  // The same backbone still accepts grad accumulation on one worker.
  spec.train_options.workers = 1;
  spec.train_options.grad_accum = 2;
  spec.train_options.epochs = 1;
  auto serial = Experiment::Create(spec);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(std::isfinite((*serial)->Run().epoch_losses.back()));
}

}  // namespace
}  // namespace darec::pipeline
