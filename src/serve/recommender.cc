#include "serve/recommender.h"

#include <algorithm>
#include <utility>

#include "tensor/io.h"

namespace darec::serve {

Recommender::Recommender(tensor::Matrix embeddings, const data::Dataset* dataset)
    : embeddings_(std::make_unique<tensor::Matrix>(std::move(embeddings))),
      dataset_(dataset),
      engine_(std::make_unique<topk::Engine>(*embeddings_, dataset->num_users(),
                                             dataset->num_items())) {}

core::StatusOr<Recommender> Recommender::Create(tensor::Matrix node_embeddings,
                                                const data::Dataset* dataset) {
  if (dataset == nullptr) {
    return core::Status::InvalidArgument("dataset must not be null");
  }
  if (node_embeddings.rows() != dataset->num_nodes()) {
    return core::Status::InvalidArgument(
        "embedding rows (" + std::to_string(node_embeddings.rows()) +
        ") != dataset nodes (" + std::to_string(dataset->num_nodes()) + ")");
  }
  if (node_embeddings.cols() <= 0) {
    return core::Status::InvalidArgument("embeddings must have positive width");
  }
  return Recommender(std::move(node_embeddings), dataset);
}

core::StatusOr<Recommender> Recommender::Load(const std::string& path,
                                              const data::Dataset* dataset) {
  DARE_ASSIGN_OR_RETURN(tensor::Matrix embeddings, tensor::LoadMatrix(path));
  return Create(std::move(embeddings), dataset);
}

core::StatusOr<std::vector<ScoredItem>> Recommender::RecommendTopK(
    int64_t user, int64_t k) const {
  if (k <= 0) return core::Status::InvalidArgument("k must be positive");
  if (user < 0 || user >= dataset_->num_users()) {
    return core::Status::OutOfRange("bad user id: " + std::to_string(user));
  }
  // Single-row engine path: no batch-of-one vectors, no Matrix allocations
  // in steady state (scratch comes from the global Workspace). The returned
  // list is the only per-call heap traffic.
  std::vector<ScoredItem> out;
  engine_->TopKOne(
      user, k,
      [this](int64_t u) { return &dataset_->TrainItemsOfUser(u); },
      topk::MaskMode::kDrop, &out);
  return out;
}

core::StatusOr<std::vector<std::vector<ScoredItem>>>
Recommender::RecommendTopKBatch(const std::vector<int64_t>& users,
                                int64_t k) const {
  if (k <= 0) return core::Status::InvalidArgument("k must be positive");
  for (int64_t user : users) {
    if (user < 0 || user >= dataset_->num_users()) {
      return core::Status::OutOfRange("bad user id: " + std::to_string(user));
    }
  }
  const topk::SeenItemsFn seen = [this](int64_t user) {
    return &dataset_->TrainItemsOfUser(user);
  };
  return engine_->TopK(users, k, seen, topk::MaskMode::kDrop);
}

core::StatusOr<float> Recommender::Score(int64_t user, int64_t item) const {
  if (user < 0 || user >= dataset_->num_users()) {
    return core::Status::OutOfRange("bad user id: " + std::to_string(user));
  }
  if (item < 0 || item >= dataset_->num_items()) {
    return core::Status::OutOfRange("bad item id: " + std::to_string(item));
  }
  const float* urow = embeddings_->Row(user);
  const float* irow = embeddings_->Row(dataset_->num_users() + item);
  float score = 0.0f;
  for (int64_t c = 0; c < embeddings_->cols(); ++c) score += urow[c] * irow[c];
  return score;
}

core::StatusOr<std::vector<ScoredItem>> Recommender::SimilarItems(int64_t item,
                                                                  int64_t k) const {
  if (item < 0 || item >= dataset_->num_items()) {
    return core::Status::OutOfRange("bad item id: " + std::to_string(item));
  }
  if (k <= 0) return core::Status::InvalidArgument("k must be positive");
  const int64_t num_items = dataset_->num_items();

  // One pass over the engine's item panels gives every dot product; norms
  // were computed once at Create.
  std::vector<float> dots(static_cast<size_t>(num_items));
  engine_->ScoreAllItems(embeddings_->Row(dataset_->num_users() + item),
                         dots.data());
  const tensor::Matrix& norms = engine_->item_norms();
  const double target_norm = norms(item, 0);

  std::vector<ScoredItem> candidates;
  candidates.reserve(static_cast<size_t>(num_items - 1));
  for (int64_t other = 0; other < num_items; ++other) {
    if (other == item) continue;
    const float dot = dots[static_cast<size_t>(other)];
    const double denom = target_norm * norms(other, 0);
    candidates.push_back(
        {other, denom > 1e-12 ? static_cast<float>(dot / denom) : 0.0f});
  }
  const int64_t take = std::min<int64_t>(k, static_cast<int64_t>(candidates.size()));
  std::partial_sort(candidates.begin(), candidates.begin() + take, candidates.end(),
                    topk::RanksBefore());
  candidates.resize(take);
  return candidates;
}

}  // namespace darec::serve
