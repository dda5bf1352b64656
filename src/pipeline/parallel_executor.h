#ifndef DAREC_PIPELINE_PARALLEL_EXECUTOR_H_
#define DAREC_PIPELINE_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "align/aligner.h"
#include "cf/backbone.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/sampler.h"
#include "pipeline/train_step.h"
#include "tensor/autograd.h"
#include "tensor/optim.h"

namespace darec::pipeline {

/// Data-parallel super-steps: K consecutive batches ("slots") run their
/// losses and backward concurrently on a private worker pool, their
/// gradients reduce in a fixed slot order, and one Adam update applies per
/// super-step.
///
/// When the backbone's training forward is the same in every slot
/// (cf::GraphBackbone::SupportsConcurrentForward), the super-step
/// propagates once:
///  1. one Forward on the calling thread (global pool) computes E;
///  2. each slot runs BPR, the L2 term, the SSL loss and the aligner on its
///     own gradient leaf holding a copy of E, capturing dL/dE in the leaf;
///  3. the slots' dL/dE are summed in ascending slot order and
///     back-propagated through the propagation once (tensor::Backward with
///     a seed) — exact in real arithmetic, since the mean gradient
///     (1/K) Σ_s J_Eᵀ g_s equals (1/K) J_Eᵀ Σ_s g_s.
/// Other backbones (AutoCF, NCL, DCCF) run one Forward and one full
/// backward per slot (TrainStep::ExecuteAccumulate), on one worker.
///
/// The semantics are defined by the batch-slot decomposition, never by the
/// worker count:
///  * slot s's rng seed is drawn from the main rng serially (slot order);
///    the shared Forward draws from none of them,
///  * slot s takes the align phase of step `step_count_before + s`,
///  * align slots each start from a copy of the super-step-initial aligner
///    state; the highest-indexed align slot's state is adopted afterwards,
///  * per parameter, the shared backward's gradient lands first, then the
///    slots' sinks drain in ascending slot order; the sum is scaled by
///    1/count (mean over the group) when count > 1,
///  * gradient finiteness is judged once, on the reduced gradients.
/// Every rule is worker-count independent, so `workers=N` is bitwise equal
/// to `workers=1` at the same grad_accum — losses, parameters, Adam
/// moments, aligner state, and checkpoint bytes (golden_trace_test,
/// parallel_executor_test).
///
/// Slots are isolated: each owns a TrainStep (private GraphContext +
/// workspace leases), a GradSink and a leaf, so concurrent slots share only
/// read-only structures (backbone params, E, the graph, the thread-safe
/// Workspace). Requires backbone->SupportsConcurrentForward() when
/// workers > 1. Divergence semantics match the serial guard: a non-finite
/// loss aborts the super-step before the shared backward, and a non-finite
/// reduced gradient before Adam.
class ParallelStepExecutor {
 public:
  /// Non-owning pointers; aligner may be null. `workers` >= 1 sizes the
  /// private pool; `grad_accum` >= 1 is K, the batches per super-step.
  ParallelStepExecutor(cf::GraphBackbone* backbone, align::Aligner* aligner,
                       tensor::Adam* optimizer, int64_t align_interval,
                       int workers, int64_t grad_accum);

  struct SuperStepResult {
    /// Per-slot outcomes, [0, count). On an aborted super-step the slots at
    /// and after the first non-finite loss are not meaningful.
    std::vector<TrainStep::Outcome> outcomes;
    /// True when the Adam update was applied (all losses and the reduced
    /// gradients finite).
    bool applied = false;
    /// How far the optimizer-step counter advanced: `count` when applied;
    /// the first bad slot's index on a non-finite loss (the serial counter
    /// stops exactly there); `count` on non-finite reduced gradients
    /// (matching the serial pre-Backward increment).
    int64_t steps_advanced = 0;
  };

  /// Runs one super-step over `group[0, count)`. `rng` is the trainer's
  /// main rng; exactly `count` NextUint64 draws advance it (slot seeds),
  /// regardless of the worker count. `step_count_before` anchors the align
  /// phases. Worker exceptions propagate to the caller.
  SuperStepResult Execute(const std::vector<std::vector<data::TrainTriple>>& group,
                          int64_t count, core::Rng& rng,
                          int64_t step_count_before);

  int64_t grad_accum() const { return grad_accum_; }
  int workers() const { return workers_; }

  /// Slot 0's arena counters (allocation-regression tests).
  const tensor::GraphContext::Stats& graph_context_stats() const {
    return steps_[0]->graph_context_stats();
  }

 private:
  cf::GraphBackbone* backbone_;
  align::Aligner* aligner_;  // May be null.
  tensor::Adam* optimizer_;
  int workers_;
  int64_t grad_accum_;
  int64_t align_interval_;
  // backbone->SupportsConcurrentForward(): one Forward per super-step.
  bool shared_forward_;
  core::ThreadPool pool_;
  std::vector<std::unique_ptr<TrainStep>> steps_;        // One per slot.
  std::vector<std::unique_ptr<tensor::GradSink>> sinks_; // One per slot.
  // Reused across super-steps to keep the steady state allocation-light.
  std::vector<core::Rng> slot_rngs_;
  std::vector<std::vector<tensor::Matrix>> slot_states_;
  std::vector<bool> align_phase_;
  // Shared-forward state: the arena of the super-step's forward graph, the
  // rng handed to that Forward (no slot draws from it), one gradient leaf
  // per slot holding a copy of E, and the ascending-slot sum of their
  // gradients.
  tensor::GraphContext forward_context_;
  core::Rng forward_rng_{0};
  std::vector<tensor::Variable> slot_nodes_;
  tensor::Matrix node_grad_sum_;
};

}  // namespace darec::pipeline

#endif  // DAREC_PIPELINE_PARALLEL_EXECUTOR_H_
