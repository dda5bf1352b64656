#ifndef DAREC_CF_DCCF_H_
#define DAREC_CF_DCCF_H_

#include <cmath>
#include <string>

#include "cf/backbone.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace darec::cf {

/// DCCF (Ren et al., SIGIR 2023): disentangled contrastive collaborative
/// filtering. Nodes attend over a set of learnable intent prototypes; the
/// intent-aware view augments the propagated local view, and an InfoNCE
/// term contrasts the two views.
class Dccf final : public GraphBackbone {
 public:
  Dccf(const graph::BipartiteGraph* graph, const BackboneOptions& options)
      : GraphBackbone(graph, options) {
    core::Rng rng(options.seed ^ 0xDCCFULL);
    intents_ = tensor::Variable::Parameter(
        tensor::XavierUniform(options.num_intents, options.embedding_dim, rng));
  }

  std::string name() const override { return "dccf"; }

  /// Forward caches local_view_/intent_view_ for SslLoss — one worker, one
  /// Forward per batch slot.
  bool SupportsConcurrentForward() const override { return false; }

  tensor::Variable Forward(bool training, core::Rng& rng) override {
    (void)training;
    (void)rng;
    local_view_ = PropagateMean(graph_->normalized_adjacency(), embedding_,
                                options_.num_layers);
    intent_view_ = IntentView(local_view_);
    return tensor::Add(local_view_, intent_view_);
  }

  tensor::Variable SslLoss(const tensor::Variable& nodes, core::Rng& rng) override {
    (void)nodes;
    DARE_CHECK(!local_view_.IsNull()) << "SslLoss before Forward";
    return TwoSidedInfoNce(local_view_, intent_view_, rng);
  }

  std::vector<tensor::Variable> Params() override { return {embedding_, intents_}; }

  /// The intent prototype matrix [num_intents x dim] (exposed for tests).
  tensor::Variable intents() { return intents_; }

 private:
  /// Soft intent assignment: softmax(E Zᵀ / sqrt(d)) Z.
  tensor::Variable IntentView(const tensor::Variable& e) const {
    const float scale = 1.0f / std::sqrt(static_cast<float>(options_.embedding_dim));
    tensor::Variable attention = tensor::SoftmaxRows(
        tensor::ScalarMul(tensor::MatMul(e, intents_, false, true), scale));
    return tensor::MatMul(attention, intents_);
  }

  tensor::Variable intents_;
  tensor::Variable local_view_;
  tensor::Variable intent_view_;
};

}  // namespace darec::cf

#endif  // DAREC_CF_DCCF_H_
