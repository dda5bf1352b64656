#ifndef DAREC_GRAPH_BIPARTITE_H_
#define DAREC_GRAPH_BIPARTITE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "data/interactions.h"
#include "tensor/csr.h"

namespace darec::graph {

/// The user–item bipartite interaction graph in the unified node index
/// (users are nodes [0, num_users); items are [num_users, num_users +
/// num_items)), plus its symmetric degree-normalized adjacency
/// Â = D^{-1/2} A D^{-1/2} used by all graph CF backbones.
class BipartiteGraph {
 public:
  /// Builds from the training split of `dataset`.
  explicit BipartiteGraph(const data::Dataset& dataset);

  /// Builds from a training InteractionStore, streaming its row blocks.
  /// The edge list and adjacency are still materialized (propagation
  /// backbones are inherently O(edges) resident).
  explicit BipartiteGraph(const data::InteractionStore& store);

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_nodes() const { return num_users_ + num_items_; }
  int64_t num_edges() const { return num_edges_; }

  /// Unified node id for a user / an item.
  int64_t UserNode(int64_t user) const { return user; }
  int64_t ItemNode(int64_t item) const { return num_users_ + item; }

  /// The raw symmetric 0/1 adjacency (both edge directions present).
  std::shared_ptr<const tensor::CsrMatrix> adjacency() const { return adjacency_; }

  /// The normalized adjacency Â used for embedding propagation.
  std::shared_ptr<const tensor::CsrMatrix> normalized_adjacency() const {
    return normalized_;
  }

  /// Edge-dropout augmentation: drops each undirected edge with probability
  /// drop_prob and returns the renormalized adjacency of the remaining
  /// graph (SGL's "edge dropout" view generator).
  std::shared_ptr<const tensor::CsrMatrix> DroppedNormalizedAdjacency(
      double drop_prob, core::Rng& rng) const;

  /// Node-dropout augmentation: removes all edges incident to a sampled
  /// drop_prob fraction of nodes, then renormalizes.
  std::shared_ptr<const tensor::CsrMatrix> NodeDroppedNormalizedAdjacency(
      double drop_prob, core::Rng& rng) const;

  /// Masked-graph view for AutoCF-style reconstruction: removes the given
  /// undirected edges (by index into `edges()`), returns the renormalized
  /// remaining adjacency.
  std::shared_ptr<const tensor::CsrMatrix> MaskedNormalizedAdjacency(
      const std::vector<int64_t>& masked_edge_indices) const;

  /// The undirected edge list (user, item) backing the graph, in training
  /// split order.
  const std::vector<data::Interaction>& edges() const { return edges_; }

 private:
  std::shared_ptr<const tensor::CsrMatrix> BuildNormalized(
      const std::vector<bool>& edge_kept) const;

  void BuildAdjacency();

  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t num_edges_ = 0;
  std::vector<data::Interaction> edges_;
  std::shared_ptr<const tensor::CsrMatrix> adjacency_;
  std::shared_ptr<const tensor::CsrMatrix> normalized_;
};

}  // namespace darec::graph

#endif  // DAREC_GRAPH_BIPARTITE_H_
