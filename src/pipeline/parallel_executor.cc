#include "pipeline/parallel_executor.h"

#include <utility>

#include "core/check.h"

namespace darec::pipeline {

using tensor::Variable;

ParallelStepExecutor::ParallelStepExecutor(cf::GraphBackbone* backbone,
                                           align::Aligner* aligner,
                                           tensor::Adam* optimizer,
                                           int64_t align_interval, int workers,
                                           int64_t grad_accum)
    : backbone_(backbone),
      aligner_(aligner),
      optimizer_(optimizer),
      workers_(workers),
      grad_accum_(grad_accum),
      align_interval_(align_interval),
      shared_forward_(backbone->SupportsConcurrentForward()),
      pool_(workers) {
  DARE_CHECK(backbone != nullptr);
  DARE_CHECK(optimizer != nullptr);
  DARE_CHECK_GT(align_interval, 0);
  DARE_CHECK_GE(workers, 1);
  DARE_CHECK_GE(grad_accum, 1);
  DARE_CHECK(workers == 1 || backbone->SupportsConcurrentForward())
      << backbone->name()
      << " caches per-step state in Forward/SslLoss and cannot run "
         "data-parallel workers; use workers=1";
  steps_.reserve(grad_accum);
  sinks_.reserve(grad_accum);
  slot_rngs_.reserve(grad_accum);
  for (int64_t s = 0; s < grad_accum; ++s) {
    steps_.push_back(std::make_unique<TrainStep>(backbone, aligner, optimizer,
                                                 align_interval));
    sinks_.push_back(std::make_unique<tensor::GradSink>());
    sinks_.back()->Register(optimizer->params());
    slot_rngs_.emplace_back(0);  // Reseeded from the main rng every group.
  }
  slot_states_.resize(grad_accum);
  align_phase_.resize(grad_accum, false);
  if (shared_forward_) {
    slot_nodes_.reserve(grad_accum);
    for (int64_t s = 0; s < grad_accum; ++s) {
      // Heap leaves (requires_grad), never arena slots: they outlive every
      // step graph, and their value/gradient capacity is reused.
      slot_nodes_.emplace_back(tensor::Matrix(), /*requires_grad=*/true);
    }
  }
}

ParallelStepExecutor::SuperStepResult ParallelStepExecutor::Execute(
    const std::vector<std::vector<data::TrainTriple>>& group, int64_t count,
    core::Rng& rng, int64_t step_count_before) {
  DARE_CHECK_GE(count, 1);
  DARE_CHECK_LE(count, grad_accum_);
  DARE_CHECK_LE(count, static_cast<int64_t>(group.size()));

  optimizer_->ZeroGrad();
  // Per-slot setup runs serially on the calling thread, in slot order, so
  // the main rng advances by exactly `count` draws and every slot input is
  // worker-count independent.
  for (int64_t s = 0; s < count; ++s) {
    sinks_[s]->Clear();
    slot_rngs_[s] = rng.Fork();
    align_phase_[s] =
        aligner_ != nullptr && (step_count_before + s) % align_interval_ == 0;
    if (align_phase_[s]) {
      // Every align slot warm-starts from the super-step-initial state —
      // chaining copies through concurrent slots would reintroduce an order
      // dependence. The copy reuses the slot's buffers.
      aligner_->CopyMutableStateInto(&slot_states_[s]);
    }
  }

  SuperStepResult result;
  result.outcomes.resize(count);
  // Shared forward: E is computed once, on the calling thread (its kernels
  // use the global pool), into the executor's own arena. The rng it is
  // handed is one no slot draws from; backbones with this property read
  // none.
  tensor::GraphContext::Scope forward_scope(&forward_context_);
  Variable nodes;
  if (shared_forward_) nodes = backbone_->Forward(/*training=*/true, forward_rng_);

  // Slots share only read-only structures; each writes its own outcome,
  // sink, rng, leaf, and state slot. Grain 1 so every slot can run on its
  // own worker. With workers > 1 the tensor kernels inside a slot run
  // inline on that worker (nested-ParallelFor rule); with workers == 1 they
  // use the global pool — bitwise identical either way by the kernels'
  // thread-count invariance. Worker exceptions rethrow here.
  pool_.ParallelFor(0, count, 1, [&](int64_t b, int64_t e) {
    for (int64_t s = b; s < e; ++s) {
      if (!shared_forward_) {
        result.outcomes[s] = steps_[s]->ExecuteAccumulate(
            group[s], slot_rngs_[s], align_phase_[s], sinks_[s].get(),
            &slot_states_[s]);
        continue;
      }
      Variable& leaf = slot_nodes_[s];
      leaf.mutable_value().CopyFrom(nodes.value());
      leaf.ClearGrad();
      result.outcomes[s] = steps_[s]->ExecuteAccumulateOnNodes(
          leaf, group[s], slot_rngs_[s], align_phase_[s], sinks_[s].get(),
          &slot_states_[s]);
    }
  });

  // The first non-finite loss, if any: the serial counter would stop at
  // that slot.
  int64_t first_bad = count;
  for (int64_t s = 0; s < count && first_bad == count; ++s) {
    if (!result.outcomes[s].finite) first_bad = s;
  }

  if (shared_forward_ && first_bad == count) {
    // (1/K) Σ_s J_Eᵀ g_s = (1/K) J_Eᵀ Σ_s g_s: sum the slots' dL/dE in
    // ascending slot order, then back-propagate the sum through the
    // propagation once. Its parameter gradients land first; the sinks
    // drain after them below.
    for (int64_t s = 0; s < count; ++s) {
      const tensor::Matrix& g = slot_nodes_[s].grad();
      if (g.empty()) continue;
      if (node_grad_sum_.empty()) {
        node_grad_sum_.CopyFrom(g);
      } else {
        node_grad_sum_.AddInPlace(g);
      }
    }
    if (!node_grad_sum_.empty()) Backward(nodes, node_grad_sum_);
    node_grad_sum_.ClearKeepCapacity();
  }
  nodes = Variable();
  forward_context_.Reset();

  if (first_bad < count) {
    // No backward through the propagation, no reduction, no Adam — the
    // super-step is abandoned wholesale.
    result.steps_advanced = first_bad;
    return result;
  }

  // Fixed-order reduction: per parameter, ascending slot index — the exact
  // accumulation order a 1-worker run uses.
  const std::vector<Variable>& params = optimizer_->params();
  for (size_t i = 0; i < params.size(); ++i) {
    for (int64_t s = 0; s < count; ++s) {
      const tensor::Matrix& buf = sinks_[s]->buffer(i);
      if (!buf.empty()) params[i].node()->AccumulateGrad(buf);
    }
  }

  if (!TrainStep::GradientsFinite(params)) {
    // All losses were finite, so the serial counter advanced through the
    // whole group before the (joint) backward poisoning was detected.
    result.steps_advanced = count;
    return result;
  }

  if (count > 1) {
    // Mean over the group: one update at the serial per-batch gradient
    // scale, keeping the learning rate comparable across grad_accum values.
    const float inv = 1.0f / static_cast<float>(count);
    for (const Variable& p : params) {
      if (!p.grad().empty()) p.node()->mutable_grad().ScaleInPlace(inv);
    }
  }
  optimizer_->Step();

  if (aligner_ != nullptr) {
    // Adopt the state of the last align slot — the one a 1-worker run
    // would leave behind — copying it into the aligner's own buffers; every
    // slot keeps its buffers for its next copy.
    for (int64_t s = count - 1; s >= 0; --s) {
      if (!align_phase_[s]) continue;
      const core::Status adopted = aligner_->CopyMutableStateFrom(slot_states_[s]);
      DARE_CHECK(adopted.ok()) << adopted.ToString();
      break;
    }
  }

  result.applied = true;
  result.steps_advanced = count;
  return result;
}

}  // namespace darec::pipeline
