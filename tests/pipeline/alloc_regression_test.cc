// Allocation regression: inside the per-step graph context a steady-state
// training epoch must perform (near-)zero Matrix heap allocations — the
// arena recycles nodes, the Workspace recycles buffers — on the serial
// trainer and on the data-parallel super-step alike.
#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"
#include "tensor/alloc_stats.h"

namespace darec::pipeline {
namespace {

using tensor::AllocStats;

ExperimentSpec SmallSpec(const std::string& variant) {
  ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = "lightgcn";
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 4;
  spec.train_options.batch_size = 256;
  spec.llm_options.output_dim = 24;
  spec.llm_options.hidden_dim = 32;
  spec.darec_options.sample_size = 64;
  spec.darec_options.uniformity_sample = 32;
  spec.darec_options.projection_dim = 16;
  spec.darec_options.hidden_dim = 24;
  spec.darec_options.kmeans_iterations = 5;
  return spec;
}

struct EpochAllocs {
  int64_t warm_allocations = 0;
  int64_t steady_allocations = 0;
  int64_t steady_bytes = 0;
};

/// Allocations of one warm-up epoch, then of two steady-state epochs.
EpochAllocs MeasureEpochAllocs(const ExperimentSpec& spec) {
  auto experiment = Experiment::Create(spec);
  EXPECT_TRUE(experiment.ok());

  EpochAllocs result;
  const bool was_enabled = AllocStats::Enabled();
  AllocStats::SetEnabled(true);
  AllocStats::Reset();
  (*experiment)->trainer().RunEpoch();  // Warm-up: arena + pool fill here.
  result.warm_allocations = AllocStats::Take().allocations;

  AllocStats::Reset();
  (*experiment)->trainer().RunEpoch();
  (*experiment)->trainer().RunEpoch();
  AllocStats::Snapshot steady = AllocStats::Take();
  AllocStats::SetEnabled(was_enabled);
  result.steady_allocations = steady.allocations;
  result.steady_bytes = steady.bytes;
  return result;
}

EpochAllocs MeasureEpochAllocs(const std::string& variant) {
  return MeasureEpochAllocs(SmallSpec(variant));
}

TEST(AllocRegressionTest, SteadyStateEpochsAllocateAlmostNothing) {
  // Once warm, an epoch reaches a small constant. Measured over two steady
  // epochs: 0 for the plain backbone and 0 for darec; the warm-up epoch
  // takes 55 / 181 (arena slots and pool buffers filling). Allocating per
  // op value would cost hundreds of buffers per tiny epoch, so the bounds
  // leave slack without ever admitting per-op churn.
  struct Budget {
    const char* variant;
    int64_t steady;
    int64_t warm;
  };
  for (const Budget& budget : {Budget{"baseline", 24, 150},
                               Budget{"darec", 24, 400}}) {
    SCOPED_TRACE(budget.variant);
    const EpochAllocs allocs = MeasureEpochAllocs(budget.variant);
    EXPECT_LE(allocs.steady_allocations, budget.steady)
        << "steady-state allocations regressed: "
        << allocs.steady_allocations << " allocs / "
        << allocs.steady_bytes << " bytes over two epochs";
    EXPECT_LE(allocs.warm_allocations, budget.warm)
        << "warm-up allocations regressed";
  }
}

TEST(AllocRegressionTest, SuperStepEpochsKeepTheSerialBudget) {
  // Data-parallel super-steps at workers=1, grad_accum=4: the per-slot
  // arenas, the shared forward's arena, the slots' dL/dE leaves, the
  // reduction buffer, each align slot's copy of the aligner's warm-start
  // state and the aligner's copy of the adopted slot state all reuse their
  // capacity, so two warm epochs allocate nothing, as on the serial
  // trainer. Every run gives the same count; multi-worker counts vary with
  // thread interleaving (workspace buffers change hands between threads)
  // and are not gated.
  struct Budget {
    const char* variant;
    int64_t steady;
  };
  for (const Budget& budget : {Budget{"baseline", 0}, Budget{"darec", 0}}) {
    SCOPED_TRACE(budget.variant);
    ExperimentSpec spec = SmallSpec(budget.variant);
    spec.train_options.workers = 1;
    spec.train_options.grad_accum = 4;
    const EpochAllocs allocs = MeasureEpochAllocs(spec);
    EXPECT_LE(allocs.steady_allocations, budget.steady)
        << "super-step allocations regressed: " << allocs.steady_allocations
        << " allocs / " << allocs.steady_bytes << " bytes over two epochs";
  }
}

TEST(AllocRegressionTest, ArenaRecyclesSlotsAcrossEpochs) {
  auto experiment = Experiment::Create(SmallSpec("darec"));
  ASSERT_TRUE(experiment.ok());
  Trainer& trainer = (*experiment)->trainer();
  trainer.RunEpoch();
  const tensor::GraphContext::Stats warm = trainer.step().graph_context_stats();
  EXPECT_GT(warm.resets, 0);
  EXPECT_GT(warm.slot_allocs, 0);

  trainer.RunEpoch();
  const tensor::GraphContext::Stats steady = trainer.step().graph_context_stats();
  EXPECT_EQ(steady.slot_allocs, warm.slot_allocs)
      << "second epoch should not grow the node arena";
  EXPECT_GT(steady.slot_reuses, warm.slot_reuses);
  EXPECT_EQ(steady.evictions, 0)
      << "no step Variable should be held across a step boundary";
}

}  // namespace
}  // namespace darec::pipeline
