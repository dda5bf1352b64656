#ifndef DAREC_CF_AUTOCF_H_
#define DAREC_CF_AUTOCF_H_

#include <string>
#include <vector>

#include "cf/backbone.h"
#include "tensor/ops.h"

namespace darec::cf {

/// AutoCF (Xia et al., WWW 2023): automated self-supervision via masked
/// graph autoencoding. Each training step masks a fraction of edges,
/// propagates over the remaining graph, and reconstructs the masked edges
/// against sampled negatives.
class AutoCf final : public GraphBackbone {
 public:
  AutoCf(const graph::BipartiteGraph* graph, const BackboneOptions& options)
      : GraphBackbone(graph, options) {}

  std::string name() const override { return "autocf"; }

  /// Forward draws a masked view and stashes masked_edges_ for SslLoss —
  /// one worker, one Forward per batch slot.
  bool SupportsConcurrentForward() const override { return false; }

  tensor::Variable Forward(bool training, core::Rng& rng) override {
    if (!training) {
      masked_edges_.clear();
      return PropagateMean(graph_->normalized_adjacency(), embedding_,
                           options_.num_layers);
    }
    const int64_t num_edges = graph_->num_edges();
    const int64_t num_masked = static_cast<int64_t>(
        static_cast<double>(num_edges) * options_.mask_ratio);
    masked_edges_ = rng.SampleWithoutReplacement(num_edges, num_masked);
    auto masked_adj = graph_->MaskedNormalizedAdjacency(masked_edges_);
    return PropagateMean(masked_adj, embedding_, options_.num_layers);
  }

  /// Reconstruction of masked edges: BPR between the masked (held-out)
  /// interaction and a random item, on the masked-graph embeddings.
  tensor::Variable SslLoss(const tensor::Variable& nodes, core::Rng& rng) override {
    if (masked_edges_.empty()) return tensor::Variable();
    std::vector<int64_t> users, pos_items, neg_items;
    users.reserve(masked_edges_.size());
    pos_items.reserve(masked_edges_.size());
    neg_items.reserve(masked_edges_.size());
    for (int64_t idx : masked_edges_) {
      const data::Interaction& e = graph_->edges()[idx];
      users.push_back(graph_->UserNode(e.user));
      pos_items.push_back(graph_->ItemNode(e.item));
      neg_items.push_back(graph_->ItemNode(rng.UniformInt(graph_->num_items())));
    }
    tensor::Variable u = tensor::GatherRows(nodes, std::move(users));
    tensor::Variable pos = tensor::GatherRows(nodes, std::move(pos_items));
    tensor::Variable neg = tensor::GatherRows(nodes, std::move(neg_items));
    return tensor::BprLoss(tensor::RowDot(u, pos), tensor::RowDot(u, neg));
  }

  /// Edge indices masked in the latest training Forward (for tests).
  const std::vector<int64_t>& masked_edges() const { return masked_edges_; }

 private:
  std::vector<int64_t> masked_edges_;
};

}  // namespace darec::cf

#endif  // DAREC_CF_AUTOCF_H_
