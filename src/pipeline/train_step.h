#ifndef DAREC_PIPELINE_TRAIN_STEP_H_
#define DAREC_PIPELINE_TRAIN_STEP_H_

#include <cstdint>
#include <vector>

#include "align/aligner.h"
#include "cf/backbone.h"
#include "core/rng.h"
#include "data/sampler.h"
#include "tensor/autograd.h"
#include "tensor/optim.h"

namespace darec::pipeline {

/// The deterministic per-batch core of the train loop:
/// forward → losses → divergence guard → optimizer apply.
///
/// Execute() performs exactly the pre-refactor batch sequence, so its
/// numerics are bit-identical to the monolithic trainer at any thread
/// count. Isolating the batch here is the seam epoch-level parallelism
/// needs: everything above it (policies, observers, checkpointing) is
/// already batch-agnostic.
///
/// Each step's autograd graph is built inside a per-TrainStep GraphContext
/// (DESIGN.md §10): node objects live in a reset-don't-free arena and value
/// buffers come from the global Workspace, so steady-state steps perform no
/// tensor heap allocations. The context is private to this TrainStep, which
/// is what lets the data-parallel executor run one TrainStep per batch slot
/// over a shared (thread-safe) Workspace.
class TrainStep {
 public:
  /// All pointers are non-owning; aligner may be null (plain baseline).
  TrainStep(cf::GraphBackbone* backbone, align::Aligner* aligner,
            tensor::Adam* optimizer, int64_t align_interval);

  struct Outcome {
    /// Total batch loss; non-finite when the step aborted.
    double loss = 0.0;
    /// Already-weighted loss components; they sum (in accumulation order)
    /// to `loss`. A component the variant does not use is exactly 0.
    double bpr_loss = 0.0;
    double reg_loss = 0.0;
    double ssl_loss = 0.0;
    double align_loss = 0.0;
    /// False when the loss or a gradient went non-finite — the poisoned
    /// optimizer update was never applied and the epoch must abort.
    bool finite = false;
  };

  /// Runs one optimizer step over `batch`. Advances step_count() only when
  /// the loss was finite (matching the pre-refactor counter semantics: the
  /// align-interval phase is taken before the increment).
  Outcome Execute(const std::vector<data::TrainTriple>& batch, core::Rng& rng);

  /// Data-parallel form: forward + losses + backward for one batch slot of
  /// a super-step, with no optimizer interaction — ZeroGrad, the gradient
  /// reduction, the finiteness check, and the Adam apply are the executor's
  /// job (pipeline::ParallelStepExecutor). Parameter gradients land in
  /// `sink` (registered on the optimizer's params) instead of the shared
  /// nodes, so concurrent slots never race; the align loss runs iff
  /// `align_phase`, reading/writing `align_state` instead of the aligner's
  /// member state. Does not touch step_count(). Outcome.finite means "loss
  /// finite, gradients captured" — gradient finiteness is judged once on
  /// the reduced gradients.
  Outcome ExecuteAccumulate(const std::vector<data::TrainTriple>& batch,
                            core::Rng& rng, bool align_phase,
                            tensor::GradSink* sink,
                            std::vector<tensor::Matrix>* align_state);

  /// ExecuteAccumulate for a super-step that shares one forward: the losses
  /// run on `nodes` — a gradient leaf holding the propagated node matrix E
  /// the executor computed once — instead of on a fresh Forward. Parameter
  /// gradients that bypass E (the L2 term on E0, SSL views propagated from
  /// E0, aligner parameters) land in `sink`; dL/dE accumulates into
  /// `nodes`' own gradient for the executor to reduce and back-propagate
  /// through the propagation once. Only for backbones whose
  /// SupportsConcurrentForward() holds.
  Outcome ExecuteAccumulateOnNodes(const tensor::Variable& nodes,
                                   const std::vector<data::TrainTriple>& batch,
                                   core::Rng& rng, bool align_phase,
                                   tensor::GradSink* sink,
                                   std::vector<tensor::Matrix>* align_state);

  /// True if every gradient in `params` is finite (empty gradients pass).
  static bool GradientsFinite(const std::vector<tensor::Variable>& params);

  /// Global optimizer-step counter; serialized in the checkpoint "meta"
  /// section so a resumed run keeps the align-interval phase.
  int64_t step_count() const { return step_count_; }
  void set_step_count(int64_t step_count) { step_count_ = step_count; }

  /// Arena counters (slot reuse / evictions) for tests and benchmarks.
  const tensor::GraphContext::Stats& graph_context_stats() const {
    return graph_context_.stats();
  }

 private:
  /// The batch sequence itself; Execute() wraps it in the graph-context
  /// scope and resets the arena once the step's Variables are gone.
  Outcome ExecuteImpl(const std::vector<data::TrainTriple>& batch,
                      core::Rng& rng);
  /// Both accumulate entry points, inside the graph-context scope; runs
  /// Forward when `shared_nodes` is null.
  Outcome Accumulate(const tensor::Variable& shared_nodes,
                     const std::vector<data::TrainTriple>& batch,
                     core::Rng& rng, bool align_phase, tensor::GradSink* sink,
                     std::vector<tensor::Matrix>* align_state);

  /// Loss assembly over the backbone's node embeddings, shared by the
  /// serial and data-parallel paths; fills the outcome's loss components
  /// (including the failpoint-poisoned total) and returns the total-loss
  /// Variable.
  tensor::Variable BuildLoss(const tensor::Variable& nodes,
                             const std::vector<data::TrainTriple>& batch,
                             core::Rng& rng, bool align_phase,
                             std::vector<tensor::Matrix>* align_state,
                             Outcome* outcome);

  cf::GraphBackbone* backbone_;
  align::Aligner* aligner_;  // May be null.
  tensor::Adam* optimizer_;
  int64_t align_interval_;
  int64_t step_count_ = 0;
  tensor::GraphContext graph_context_;
};

}  // namespace darec::pipeline

#endif  // DAREC_PIPELINE_TRAIN_STEP_H_
