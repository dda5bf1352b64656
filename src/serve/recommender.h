#ifndef DAREC_SERVE_RECOMMENDER_H_
#define DAREC_SERVE_RECOMMENDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/statusor.h"
#include "data/dataset.h"
#include "tensor/matrix.h"
#include "topk/engine.h"

namespace darec::serve {

/// One recommended item with its raw inner-product score (shared with the
/// batched top-K engine the facade is built on).
using ScoredItem = topk::ScoredItem;

/// Serving facade over trained node embeddings: the object a downstream
/// application holds after training (or after loading persisted
/// embeddings) to answer top-K queries. Stateless per query and
/// thread-compatible for concurrent reads.
///
/// All top-K scoring runs on the shared topk::Engine: groups of users are
/// scored against packed 32-item panels straight into per-user bounded
/// heaps, train-seen items are masked by a forward cursor over each user's
/// sorted seen list, and lists rank with the deterministic (score desc,
/// id asc) tie-break. The item panels and the item L2 norms are precomputed
/// once at Create.
class Recommender {
 public:
  /// `node_embeddings` holds user rows [0, num_users) then item rows, as
  /// produced by pipeline::TrainResult::final_embeddings. Items the user
  /// interacted with in `dataset`'s training split are excluded from
  /// results (the all-ranking serving convention). Fails on shape
  /// mismatch.
  static core::StatusOr<Recommender> Create(tensor::Matrix node_embeddings,
                                            const data::Dataset* dataset);

  /// Loads embeddings persisted with tensor::SaveMatrix.
  static core::StatusOr<Recommender> Load(const std::string& path,
                                          const data::Dataset* dataset);

  /// Top-k items for `user`, highest score first, training items excluded.
  /// The one k contract, shared with RecommendTopKBatch: non-positive k is
  /// InvalidArgument; k larger than the user's eligible-item count is
  /// clamped (the list is simply shorter). Fails on a bad user id.
  /// Result-for-result identical to RecommendTopKBatch({user}, k), but runs
  /// the engine's single-row path: pooled scratch, no per-request Matrix
  /// allocations (see tensor::AllocStats).
  core::StatusOr<std::vector<ScoredItem>> RecommendTopK(int64_t user,
                                                        int64_t k) const;

  /// Batched top-k: answers every user in `users` from fused passes over
  /// the item panels (a group of users per pass instead of one scalar loop
  /// per request). Result i is the ranked list for users[i]; duplicates are
  /// allowed. Identical, list for list, to per-user RecommendTopK calls,
  /// under the same k contract: non-positive k fails, oversized k clamps
  /// per user. Fails on any bad user id.
  core::StatusOr<std::vector<std::vector<ScoredItem>>> RecommendTopKBatch(
      const std::vector<int64_t>& users, int64_t k) const;

  /// Score of one (user, item) pair (no masking).
  core::StatusOr<float> Score(int64_t user, int64_t item) const;

  /// Items most similar to `item` by cosine of item embeddings, excluding
  /// itself ("users also liked" carousel). Uses the precomputed item norms
  /// and takes the dot row from the engine's item panels (ScoreAllItems).
  /// Ranked by topk::RanksBefore.
  core::StatusOr<std::vector<ScoredItem>> SimilarItems(int64_t item,
                                                       int64_t k) const;

  int64_t num_users() const { return dataset_->num_users(); }
  int64_t num_items() const { return dataset_->num_items(); }

 private:
  Recommender(tensor::Matrix embeddings, const data::Dataset* dataset);

  // unique_ptr keeps the embedding matrix (and therefore the engine's
  // pointer into it) address-stable across Recommender moves.
  std::unique_ptr<tensor::Matrix> embeddings_;
  const data::Dataset* dataset_;
  std::unique_ptr<topk::Engine> engine_;
};

}  // namespace darec::serve

#endif  // DAREC_SERVE_RECOMMENDER_H_
