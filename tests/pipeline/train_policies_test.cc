#include "pipeline/policies.h"

#include <cmath>
#include <filesystem>
#include <string>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "tensor/matrix.h"

namespace darec::pipeline {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- EarlyStopping

TEST(EarlyStoppingTest, DisabledWhenEvalEveryNonPositive) {
  EarlyStopping off(/*eval_every=*/0, /*patience=*/3, /*eval_k=*/20);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.ShouldEvaluate(1));
  EXPECT_FALSE(off.ShouldEvaluate(100));

  EarlyStopping negative(/*eval_every=*/-2, /*patience=*/3, /*eval_k=*/20);
  EXPECT_FALSE(negative.enabled());
}

TEST(EarlyStoppingTest, EvaluatesOnCadence) {
  EarlyStopping policy(/*eval_every=*/3, /*patience=*/2, /*eval_k=*/20);
  ASSERT_TRUE(policy.enabled());
  EXPECT_FALSE(policy.ShouldEvaluate(1));
  EXPECT_FALSE(policy.ShouldEvaluate(2));
  EXPECT_TRUE(policy.ShouldEvaluate(3));
  EXPECT_FALSE(policy.ShouldEvaluate(4));
  EXPECT_TRUE(policy.ShouldEvaluate(6));
}

TEST(EarlyStoppingTest, PatienceExhaustionStops) {
  EarlyStopping policy(/*eval_every=*/1, /*patience=*/2, /*eval_k=*/20);
  tensor::Matrix snapshot = tensor::Matrix::Full(2, 2, 1.0f);

  EarlyStopping::Decision first = policy.Observe(0.5, snapshot);
  EXPECT_TRUE(first.improved);
  EXPECT_FALSE(first.stop);
  EXPECT_EQ(policy.best_validation(), 0.5);

  // Two non-improving measurements exhaust patience=2.
  EarlyStopping::Decision second = policy.Observe(0.4, snapshot);
  EXPECT_FALSE(second.improved);
  EXPECT_FALSE(second.stop);
  EXPECT_EQ(policy.evals_since_improvement(), 1);

  EarlyStopping::Decision third = policy.Observe(0.5, snapshot);  // Tie: no improve.
  EXPECT_FALSE(third.improved);
  EXPECT_TRUE(third.stop);
}

TEST(EarlyStoppingTest, ImprovementResetsPatienceAndKeepsBestSnapshot) {
  EarlyStopping policy(/*eval_every=*/1, /*patience=*/2, /*eval_k=*/20);

  policy.Observe(0.3, tensor::Matrix::Full(2, 2, 3.0f));
  policy.Observe(0.2, tensor::Matrix::Full(2, 2, 9.0f));  // Worse: not kept.
  EXPECT_EQ(policy.evals_since_improvement(), 1);

  EarlyStopping::Decision better = policy.Observe(0.6, tensor::Matrix::Full(2, 2, 7.0f));
  EXPECT_TRUE(better.improved);
  EXPECT_EQ(policy.evals_since_improvement(), 0);
  ASSERT_TRUE(policy.has_best());
  EXPECT_EQ(policy.best_embeddings().data()[0], 7.0f);
  EXPECT_EQ(policy.best_validation(), 0.6);
}

TEST(EarlyStoppingTest, StateRoundTripsThroughBytes) {
  EarlyStopping policy(/*eval_every=*/2, /*patience=*/5, /*eval_k=*/10);
  policy.Observe(0.42, tensor::Matrix::Full(3, 4, 1.5f));
  policy.Observe(0.41, tensor::Matrix::Full(3, 4, 8.0f));

  ckpt::ByteWriter writer;
  policy.AppendState(writer);

  ckpt::ByteReader reader(writer.str());
  auto state = EarlyStopping::ParseState(reader);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(reader.AtEnd());

  EarlyStopping fresh(/*eval_every=*/2, /*patience=*/5, /*eval_k=*/10);
  fresh.Restore(*std::move(state));
  EXPECT_EQ(fresh.best_validation(), 0.42);
  EXPECT_EQ(fresh.evals_since_improvement(), 1);
  ASSERT_TRUE(fresh.has_best());
  EXPECT_EQ(fresh.best_embeddings().rows(), 3);
  EXPECT_EQ(fresh.best_embeddings().data()[0], 1.5f);
}

TEST(EarlyStoppingTest, ParseRejectsTruncatedState) {
  EarlyStopping policy(/*eval_every=*/1, /*patience=*/3, /*eval_k=*/20);
  policy.Observe(0.9, tensor::Matrix::Full(2, 2, 1.0f));

  ckpt::ByteWriter writer;
  policy.AppendState(writer);
  const std::string bytes = writer.str();

  ckpt::ByteReader reader(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_FALSE(EarlyStopping::ParseState(reader).ok());
}

// -------------------------------------------------------------- CheckpointPolicy

TEST(CheckpointPolicyTest, DisabledWithoutManagerOrCadence) {
  CheckpointPolicy no_manager(/*manager_present=*/false, /*every=*/1);
  EXPECT_FALSE(no_manager.enabled());
  EXPECT_FALSE(no_manager.ShouldSave(1));
  EXPECT_FALSE(no_manager.ShouldSaveInitial(/*any_checkpoint_exists=*/false));

  CheckpointPolicy no_cadence(/*manager_present=*/true, /*every=*/0);
  EXPECT_FALSE(no_cadence.enabled());
  EXPECT_FALSE(no_cadence.ShouldSave(1));
}

TEST(CheckpointPolicyTest, SavesOnCadence) {
  CheckpointPolicy policy(/*manager_present=*/true, /*every=*/2);
  ASSERT_TRUE(policy.enabled());
  EXPECT_FALSE(policy.ShouldSave(1));
  EXPECT_TRUE(policy.ShouldSave(2));
  EXPECT_FALSE(policy.ShouldSave(3));
  EXPECT_TRUE(policy.ShouldSave(4));
}

TEST(CheckpointPolicyTest, InitialSaveOnlyIntoEmptyDirectory) {
  CheckpointPolicy policy(/*manager_present=*/true, /*every=*/1);
  EXPECT_TRUE(policy.ShouldSaveInitial(/*any_checkpoint_exists=*/false));
  EXPECT_FALSE(policy.ShouldSaveInitial(/*any_checkpoint_exists=*/true));
}

// -------------------------------------------------------------- DivergenceGuard

TEST(DivergenceGuardTest, BudgetAndBackoffEscalate) {
  DivergenceGuard guard(/*lr_backoff=*/0.5f, /*max_retries=*/3);
  ASSERT_TRUE(guard.CanRetry());

  EXPECT_FLOAT_EQ(guard.RegisterRetry(), 0.5f);
  EXPECT_FLOAT_EQ(guard.RegisterRetry(), 0.25f);
  EXPECT_FLOAT_EQ(guard.RegisterRetry(), 0.125f);
  EXPECT_EQ(guard.retries(), 3);
  EXPECT_FALSE(guard.CanRetry());
}

TEST(DivergenceGuardTest, ZeroBudgetNeverRetries) {
  DivergenceGuard guard(/*lr_backoff=*/0.5f, /*max_retries=*/0);
  EXPECT_FALSE(guard.CanRetry());
}

// ------------------------------------------------------- Rotation (keep_last)

ExperimentSpec RotationSpec(const std::string& dir) {
  ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = "lightgcn";
  spec.variant = "baseline";
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 5;
  spec.train_options.batch_size = 256;
  spec.train_options.checkpoint_dir = dir;
  spec.train_options.checkpoint_every = 1;
  spec.train_options.keep_last_checkpoints = 2;
  return spec;
}

TEST(CheckpointRotationTest, KeepLastBoundsDirectoryAndKeepsNewest) {
  const std::string dir = ::testing::TempDir() + "/train_policies_rotation";
  fs::remove_all(dir);

  auto experiment = Experiment::Create(RotationSpec(dir));
  ASSERT_TRUE(experiment.ok());
  (*experiment)->Run();

  ckpt::CheckpointManagerOptions copts;
  copts.dir = dir;
  ckpt::CheckpointManager manager(copts);
  std::vector<ckpt::CheckpointEntry> entries = manager.List();
  // 6 commits happened (initial + 5 epochs); only the 2 newest survive.
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].step, 4);
  EXPECT_EQ(entries[1].step, 5);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace darec::pipeline
