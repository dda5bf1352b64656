#include "pipeline/parallel_executor.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "data/sampler.h"
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

/// The shared forward is exact in real arithmetic: the super-step's mean
/// gradient (1/K) Σ_s J_Eᵀ g_s equals (1/K) J_Eᵀ Σ_s g_s. In floats only the
/// summation order moves, so the executor's reduced gradient must match the
/// per-slot reference (one full ExecuteAccumulate per slot, drained in slot
/// order, scaled by 1/K) to within kRelTol of each parameter's largest
/// gradient entry — and the per-slot losses, which run on the same E, must
/// match bitwise.
TEST_F(ParallelExecutorTest, SharedForwardGradientMatchesPerSlotReference) {
  // Re-association error is a few float ulps of the largest entry;
  // measured at most 1.5e-7 of it (embedding table; the aligner's
  // parameters match exactly).
  constexpr double kRelTol = 1e-5;
  constexpr int64_t kSlots = 4;
  for (const std::string backbone : {"lightgcn", "sgl"}) {
    for (const std::string variant : {"baseline", "darec"}) {
      SCOPED_TRACE(backbone + "/" + variant);
      auto experiment = Experiment::Create(TinySpec(backbone, variant));
      ASSERT_TRUE(experiment.ok());
      cf::GraphBackbone* net = &(*experiment)->backbone();
      align::Aligner* aligner = (*experiment)->aligner();
      std::vector<tensor::Variable> params = net->Params();
      if (aligner != nullptr) {
        for (const tensor::Variable& p : aligner->Params()) params.push_back(p);
      }
      tensor::Adam adam(params, 1e-3f);

      core::Rng main_rng(7);
      data::BatchIterator batches((*experiment)->dataset(), 256, main_rng);
      batches.NewEpoch(main_rng);
      std::vector<std::vector<data::TrainTriple>> group(kSlots);
      for (auto& batch : group) ASSERT_TRUE(batches.NextBatch(batch, main_rng));

      // Reference: the per-slot path, from the same slot rngs and states.
      core::Rng ref_rng = main_rng;
      std::vector<std::vector<double>> ref_losses(kSlots);
      std::vector<tensor::Matrix> reference(params.size());
      for (int64_t s = 0; s < kSlots; ++s) {
        TrainStep step(net, aligner, &adam, /*align_interval=*/1);
        tensor::GradSink sink;
        sink.Register(params);
        core::Rng slot_rng = ref_rng.Fork();
        std::vector<tensor::Matrix> state =
            aligner != nullptr ? aligner->MutableState()
                               : std::vector<tensor::Matrix>{};
        const TrainStep::Outcome outcome = step.ExecuteAccumulate(
            group[s], slot_rng, aligner != nullptr, &sink, &state);
        ASSERT_TRUE(outcome.finite);
        ref_losses[s] = {outcome.loss, outcome.bpr_loss, outcome.reg_loss,
                         outcome.ssl_loss, outcome.align_loss};
        for (size_t i = 0; i < params.size(); ++i) {
          const tensor::Matrix& buf = sink.buffer(i);
          if (buf.empty()) continue;
          if (reference[i].empty()) {
            reference[i] = buf;
          } else {
            reference[i].AddInPlace(buf);
          }
        }
      }
      for (tensor::Matrix& r : reference) {
        if (!r.empty()) r.ScaleInPlace(1.0f / kSlots);
      }

      ParallelStepExecutor executor(net, aligner, &adam, /*align_interval=*/1,
                                    /*workers=*/2, kSlots);
      const ParallelStepExecutor::SuperStepResult result =
          executor.Execute(group, kSlots, main_rng, /*step_count_before=*/0);
      ASSERT_TRUE(result.applied);
      for (int64_t s = 0; s < kSlots; ++s) {
        const TrainStep::Outcome& o = result.outcomes[s];
        EXPECT_EQ(std::vector<double>({o.loss, o.bpr_loss, o.reg_loss,
                                       o.ssl_loss, o.align_loss}),
                  ref_losses[s])
            << "slot " << s << " losses differ";
      }
      // Adam reads the reduced gradients and leaves them in place.
      for (size_t i = 0; i < params.size(); ++i) {
        SCOPED_TRACE("param " + std::to_string(i));
        const tensor::Matrix& got = params[i].grad();
        ASSERT_EQ(got.empty(), reference[i].empty());
        if (got.empty()) continue;
        ASSERT_TRUE(got.SameShape(reference[i]));
        double scale = 0.0;
        double worst = 0.0;
        for (int64_t k = 0; k < got.size(); ++k) {
          const double want = reference[i].data()[k];
          scale = std::max(scale, std::abs(want));
          worst = std::max(worst, std::abs(got.data()[k] - want));
        }
        ASSERT_GT(scale, 0.0);
        EXPECT_LE(worst, kRelTol * scale)
            << "max deviation " << worst / scale << " of the largest entry";
      }
    }
  }
}

/// Backbones that draw a view in Forward or stash per-step views for
/// SslLoss (AutoCF, DCCF) keep one Forward and one full backward per slot.
/// That path trains deterministically at workers=1 and really groups the
/// batches.
TEST_F(ParallelExecutorTest, PerSlotPathTrainsStatefulBackbones) {
  for (const std::string backbone : {"autocf", "dccf"}) {
    SCOPED_TRACE(backbone);
    ExperimentSpec spec = TinySpec(backbone, "darec");
    spec.train_options.epochs = 2;
    spec.train_options.workers = 1;
    spec.train_options.grad_accum = 4;
    auto first = Experiment::Create(spec);
    ASSERT_TRUE(first.ok());
    ASSERT_FALSE((*first)->backbone().SupportsConcurrentForward());
    const TrainResult a = (*first)->Run();
    auto second = Experiment::Create(spec);
    ASSERT_TRUE(second.ok());
    const TrainResult b = (*second)->Run();

    ASSERT_EQ(a.epoch_losses.size(), 2u);
    ASSERT_EQ(a.epoch_losses, b.epoch_losses);
    for (double loss : a.epoch_losses) EXPECT_TRUE(std::isfinite(loss));
    ExpectBitIdentical(a.final_embeddings, b.final_embeddings);

    spec.train_options.grad_accum = 1;
    auto serial = Experiment::Create(spec);
    ASSERT_TRUE(serial.ok());
    EXPECT_NE((*serial)->Run().epoch_losses.back(), a.epoch_losses.back());
  }
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
