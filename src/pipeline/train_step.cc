#include "pipeline/train_step.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/failpoint.h"
#include "graph/bipartite.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace darec::pipeline {

using tensor::Variable;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Gathered batch index triples in unified node ids.
struct BatchNodes {
  std::vector<int64_t> users;
  std::vector<int64_t> pos_items;
  std::vector<int64_t> neg_items;
};

BatchNodes ToNodeIds(const std::vector<data::TrainTriple>& batch,
                     const graph::BipartiteGraph& graph) {
  BatchNodes nodes;
  nodes.users.reserve(batch.size());
  nodes.pos_items.reserve(batch.size());
  nodes.neg_items.reserve(batch.size());
  for (const data::TrainTriple& t : batch) {
    nodes.users.push_back(graph.UserNode(t.user));
    nodes.pos_items.push_back(graph.ItemNode(t.pos_item));
    nodes.neg_items.push_back(graph.ItemNode(t.neg_item));
  }
  return nodes;
}

}  // namespace

TrainStep::TrainStep(cf::GraphBackbone* backbone, align::Aligner* aligner,
                     tensor::Adam* optimizer, int64_t align_interval)
    : backbone_(backbone),
      aligner_(aligner),
      optimizer_(optimizer),
      align_interval_(align_interval) {
  DARE_CHECK(backbone != nullptr);
  DARE_CHECK(optimizer != nullptr);
  DARE_CHECK_GT(align_interval, 0);
}

bool TrainStep::GradientsFinite(const std::vector<Variable>& params) {
  for (const Variable& p : params) {
    const tensor::Matrix& grad = p.grad();
    const float* data = grad.data();
    const int64_t n = grad.size();
    double sum = 0.0;
    for (int64_t i = 0; i < n; ++i) sum += data[i];
    // Finite floats can never overflow a double accumulator, so a non-finite
    // sum is exactly "at least one non-finite gradient entry" (inf pairs of
    // opposite sign collapse to NaN, never back to a finite value).
    if (!std::isfinite(sum)) return false;
  }
  return true;
}

TrainStep::Outcome TrainStep::Execute(const std::vector<data::TrainTriple>& batch,
                                      core::Rng& rng) {
  tensor::GraphContext::Scope scope(&graph_context_);
  Outcome outcome = ExecuteImpl(batch, rng);
  // ExecuteImpl's Variables are out of scope here, so the arena can rewind:
  // edges and closures drop (returning captured scratch to the Workspace)
  // and every slot is reusable by the next step.
  graph_context_.Reset();
  return outcome;
}

TrainStep::Outcome TrainStep::ExecuteAccumulate(
    const std::vector<data::TrainTriple>& batch, core::Rng& rng,
    bool align_phase, tensor::GradSink* sink,
    std::vector<tensor::Matrix>* align_state) {
  return Accumulate(Variable(), batch, rng, align_phase, sink, align_state);
}

TrainStep::Outcome TrainStep::ExecuteAccumulateOnNodes(
    const Variable& nodes, const std::vector<data::TrainTriple>& batch,
    core::Rng& rng, bool align_phase, tensor::GradSink* sink,
    std::vector<tensor::Matrix>* align_state) {
  DARE_CHECK(!nodes.IsNull() && nodes.requires_grad())
      << "shared-forward slots need a gradient leaf holding E";
  return Accumulate(nodes, batch, rng, align_phase, sink, align_state);
}

TrainStep::Outcome TrainStep::Accumulate(
    const Variable& shared_nodes, const std::vector<data::TrainTriple>& batch,
    core::Rng& rng, bool align_phase, tensor::GradSink* sink,
    std::vector<tensor::Matrix>* align_state) {
  tensor::GraphContext::Scope scope(&graph_context_);
  Outcome outcome;
  {
    Variable nodes = shared_nodes.IsNull()
                         ? backbone_->Forward(/*training=*/true, rng)
                         : shared_nodes;
    Variable loss =
        BuildLoss(nodes, batch, rng, align_phase, align_state, &outcome);
    if (std::isfinite(outcome.loss)) {
      // Backward is the only place parameter gradients accumulate, so
      // scoping the sink here diverts exactly them.
      tensor::GradSink::Scope sink_scope(sink);
      Backward(loss);
      outcome.finite = true;
    }
  }
  // The step's Variables are out of scope: rewind the arena.
  graph_context_.Reset();
  return outcome;
}

TrainStep::Outcome TrainStep::ExecuteImpl(
    const std::vector<data::TrainTriple>& batch, core::Rng& rng) {
  Outcome outcome;
  optimizer_->ZeroGrad();
  Variable nodes = backbone_->Forward(/*training=*/true, rng);
  Variable loss = BuildLoss(nodes, batch, rng, step_count_ % align_interval_ == 0,
                            /*align_state=*/nullptr, &outcome);
  // Divergence guard: abort before the poisoned update is applied; the loop
  // above decides whether to roll back to a checkpoint.
  if (!std::isfinite(outcome.loss)) return outcome;

  ++step_count_;
  Backward(loss);
  if (!GradientsFinite(optimizer_->params())) return outcome;
  optimizer_->Step();
  outcome.finite = true;
  return outcome;
}

Variable TrainStep::BuildLoss(const Variable& nodes,
                              const std::vector<data::TrainTriple>& batch,
                              core::Rng& rng, bool align_phase,
                              std::vector<tensor::Matrix>* align_state,
                              Outcome* outcome) {
  const cf::BackboneOptions& bopt = backbone_->options();

  Variable scored = aligner_ != nullptr ? aligner_->AugmentNodes(nodes) : nodes;

  BatchNodes ids = ToNodeIds(batch, backbone_->graph());
  Variable users = GatherRows(scored, ids.users);
  Variable pos = GatherRows(scored, ids.pos_items);
  Variable neg = GatherRows(scored, ids.neg_items);
  Variable loss = BprLoss(RowDot(users, pos), RowDot(users, neg));
  outcome->bpr_loss = loss.scalar();

  if (bopt.l2_reg > 0.0f) {
    // Standard BPR regularization on the batch's initial embeddings.
    Variable e0 = backbone_->initial_embeddings();
    Variable reg = tensor::L2Penalty({GatherRows(e0, std::move(ids.users)),
                                      GatherRows(e0, std::move(ids.pos_items)),
                                      GatherRows(e0, std::move(ids.neg_items))});
    Variable reg_term =
        ScalarMul(reg, bopt.l2_reg / static_cast<float>(batch.size()));
    outcome->reg_loss = reg_term.scalar();
    loss = Add(loss, reg_term);
  }

  Variable ssl = backbone_->SslLoss(nodes, rng);
  if (!ssl.IsNull()) {
    Variable ssl_term = ScalarMul(ssl, bopt.ssl_weight);
    outcome->ssl_loss = ssl_term.scalar();
    loss = Add(loss, ssl_term);
  }

  if (aligner_ != nullptr && align_phase) {
    Variable align_loss = align_state == nullptr
                              ? aligner_->Loss(nodes, rng)
                              : aligner_->LossWithState(nodes, rng, align_state);
    if (!align_loss.IsNull()) {
      outcome->align_loss = align_loss.scalar();
      loss = Add(loss, align_loss);
    }
  }

  outcome->loss = loss.scalar();
  if (core::FailPoint::Fires("trainer.nan_loss")) outcome->loss = kNan;
  return loss;
}

}  // namespace darec::pipeline
