#ifndef DAREC_CF_NCL_H_
#define DAREC_CF_NCL_H_

#include <string>
#include <vector>

#include "cf/backbone.h"
#include "cluster/kmeans.h"
#include "tensor/ops.h"

namespace darec::cf {

/// NCL (Lin et al., WWW 2022): neighborhood-enriched contrastive learning
/// on a LightGCN base. Two auxiliary views:
///  - structural: each node's even-hop propagated embedding (layer 2)
///    contrasted with its own layer-0 embedding;
///  - semantic: each node pulled toward the k-means prototype of its
///    embedding cluster (EM-style; prototypes recomputed per SSL call on a
///    node subsample rather than per epoch — same role, cheaper).
class Ncl final : public GraphBackbone {
 public:
  Ncl(const graph::BipartiteGraph* graph, const BackboneOptions& options)
      : GraphBackbone(graph, options) {}

  std::string name() const override { return "ncl"; }

  /// Forward caches layer_outputs_ for SslLoss — one worker, one Forward
  /// per batch slot.
  bool SupportsConcurrentForward() const override { return false; }

  tensor::Variable Forward(bool training, core::Rng& rng) override {
    (void)training;
    (void)rng;
    layer_outputs_.clear();
    layer_outputs_.push_back(embedding_);
    tensor::Variable current = embedding_;
    for (int64_t l = 0; l < options_.num_layers; ++l) {
      current = SpMM(graph_->normalized_adjacency(), current);
      layer_outputs_.push_back(current);
    }
    return tensor::MeanOf(layer_outputs_);
  }

  tensor::Variable SslLoss(const tensor::Variable& nodes, core::Rng& rng) override {
    (void)nodes;
    DARE_CHECK_GE(layer_outputs_.size(), 3u) << "SslLoss before Forward";
    // Structural: layer-2 (even hop) vs layer-0.
    tensor::Variable structural =
        TwoSidedInfoNce(layer_outputs_[2], layer_outputs_[0], rng);

    // Semantic: prototype pull on a node subsample.
    std::vector<int64_t> sample = SampleNodes(options_.ssl_batch, rng);
    tensor::Variable sampled = GatherRows(layer_outputs_[0], sample);
    cluster::KMeansOptions kopts;
    kopts.num_clusters =
        std::min<int64_t>(options_.num_intents,
                          static_cast<int64_t>(sample.size()));
    kopts.max_iterations = 10;
    cluster::KMeansResult clusters =
        cluster::RunKMeans(sampled.value(), kopts, rng);
    tensor::Variable prototypes = tensor::MatMul(
        tensor::Variable::Constant(cluster::AssignmentAveragingMatrix(
            clusters.assignments, kopts.num_clusters)),
        sampled);
    std::vector<int64_t> own(sample.size());
    for (size_t i = 0; i < sample.size(); ++i) own[i] = clusters.assignments[i];
    tensor::Variable own_prototype = GatherRows(prototypes, std::move(own));
    // 1 - cos(node, its prototype), averaged.
    tensor::Variable semantic = tensor::Mean(tensor::ScalarMul(
        tensor::AddScalar(tensor::CosineRowSimilarity(sampled, own_prototype),
                          -1.0f),
        -1.0f));
    return tensor::Add(structural, semantic);
  }

 private:
  std::vector<tensor::Variable> layer_outputs_;
};

}  // namespace darec::cf

#endif  // DAREC_CF_NCL_H_
