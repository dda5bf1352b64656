#include "graph/bipartite.h"

#include <utility>

#include "core/check.h"

namespace darec::graph {

using tensor::CsrMatrix;
using tensor::Triplet;

BipartiteGraph::BipartiteGraph(const data::Dataset& dataset) {
  num_users_ = dataset.num_users();
  num_items_ = dataset.num_items();
  num_edges_ = static_cast<int64_t>(dataset.train().size());
  edges_ = dataset.train();
  BuildAdjacency();
}

BipartiteGraph::BipartiteGraph(const data::InteractionStore& store) {
  num_users_ = store.num_users();
  num_items_ = store.num_items();
  num_edges_ = store.nnz();
  edges_.reserve(static_cast<size_t>(num_edges_));
  for (int64_t b = 0; b < store.num_blocks(); ++b) {
    core::StatusOr<data::RowBlockView> view = store.FetchBlock(b);
    DARE_CHECK(view.ok()) << view.status().message();
    for (int64_t user = view->row_begin; user < view->row_end; ++user) {
      for (int64_t item : view->Row(user)) {
        edges_.push_back({user, item});
      }
    }
  }
  DARE_CHECK_EQ(static_cast<int64_t>(edges_.size()), num_edges_);
  BuildAdjacency();
}

void BipartiteGraph::BuildAdjacency() {
  std::vector<Triplet> triplets;
  triplets.reserve(2 * edges_.size());
  for (const data::Interaction& e : edges_) {
    const int64_t u = UserNode(e.user);
    const int64_t i = ItemNode(e.item);
    triplets.push_back({u, i, 1.0f});
    triplets.push_back({i, u, 1.0f});
  }
  auto adjacency = std::make_shared<CsrMatrix>(
      CsrMatrix::FromTriplets(num_nodes(), num_nodes(), std::move(triplets)));
  normalized_ = std::make_shared<CsrMatrix>(adjacency->SymmetricNormalized());
  adjacency_ = std::move(adjacency);
}

std::shared_ptr<const CsrMatrix> BipartiteGraph::BuildNormalized(
    const std::vector<bool>& edge_kept) const {
  DARE_CHECK_EQ(static_cast<int64_t>(edge_kept.size()), num_edges_);
  std::vector<Triplet> triplets;
  triplets.reserve(2 * edges_.size());
  for (size_t k = 0; k < edges_.size(); ++k) {
    if (!edge_kept[k]) continue;
    const int64_t u = UserNode(edges_[k].user);
    const int64_t i = ItemNode(edges_[k].item);
    triplets.push_back({u, i, 1.0f});
    triplets.push_back({i, u, 1.0f});
  }
  CsrMatrix adjacency =
      CsrMatrix::FromTriplets(num_nodes(), num_nodes(), std::move(triplets));
  return std::make_shared<CsrMatrix>(adjacency.SymmetricNormalized());
}

std::shared_ptr<const CsrMatrix> BipartiteGraph::DroppedNormalizedAdjacency(
    double drop_prob, core::Rng& rng) const {
  DARE_CHECK(drop_prob >= 0.0 && drop_prob < 1.0);
  std::vector<bool> kept(edges_.size());
  for (size_t k = 0; k < edges_.size(); ++k) kept[k] = !rng.Bernoulli(drop_prob);
  return BuildNormalized(kept);
}

std::shared_ptr<const CsrMatrix> BipartiteGraph::NodeDroppedNormalizedAdjacency(
    double drop_prob, core::Rng& rng) const {
  DARE_CHECK(drop_prob >= 0.0 && drop_prob < 1.0);
  std::vector<bool> node_dropped(num_nodes(), false);
  for (int64_t n = 0; n < num_nodes(); ++n) node_dropped[n] = rng.Bernoulli(drop_prob);
  std::vector<bool> kept(edges_.size());
  for (size_t k = 0; k < edges_.size(); ++k) {
    kept[k] = !node_dropped[UserNode(edges_[k].user)] &&
              !node_dropped[ItemNode(edges_[k].item)];
  }
  return BuildNormalized(kept);
}

std::shared_ptr<const CsrMatrix> BipartiteGraph::MaskedNormalizedAdjacency(
    const std::vector<int64_t>& masked_edge_indices) const {
  std::vector<bool> kept(edges_.size(), true);
  for (int64_t idx : masked_edge_indices) {
    DARE_CHECK(idx >= 0 && idx < num_edges_) << "edge index out of range: " << idx;
    kept[idx] = false;
  }
  return BuildNormalized(kept);
}

}  // namespace darec::graph
