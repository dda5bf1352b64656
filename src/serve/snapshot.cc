#include "serve/snapshot.h"

#include <string>
#include <utility>

namespace darec::serve {

ModelSnapshot::ModelSnapshot(
    tensor::Matrix embeddings, int64_t num_users, int64_t num_items,
    const data::Dataset* dataset,
    std::unique_ptr<const data::ResidentInteractions> seen, uint64_t version)
    : embeddings_(std::make_unique<tensor::Matrix>(std::move(embeddings))),
      num_users_(num_users),
      num_items_(num_items),
      dataset_(dataset),
      seen_(std::move(seen)),
      version_(version) {
  engine_ = std::make_unique<topk::Engine>(*embeddings_, num_users_,
                                           num_items_);
}

namespace {

core::Status CheckNoInt8(bool build_int8) {
  if (build_int8) {
    return core::Status::InvalidArgument(
        "int8 snapshots were removed; build_int8 must be false");
  }
  return core::Status::Ok();
}

}  // namespace

core::StatusOr<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Create(
    tensor::Matrix node_embeddings, const data::Dataset* dataset,
    bool build_int8, uint64_t version) {
  DARE_RETURN_IF_ERROR(CheckNoInt8(build_int8));
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
  return std::shared_ptr<const ModelSnapshot>(new ModelSnapshot(
      std::move(node_embeddings), dataset->num_users(), dataset->num_items(),
      dataset, /*seen=*/nullptr, version));
}

core::StatusOr<std::shared_ptr<const ModelSnapshot>>
ModelSnapshot::CreateFromStore(tensor::Matrix node_embeddings,
                               const data::InteractionStore& store,
                               bool build_int8, uint64_t version) {
  DARE_RETURN_IF_ERROR(CheckNoInt8(build_int8));
  if (node_embeddings.rows() != store.num_users() + store.num_items()) {
    return core::Status::InvalidArgument(
        "embedding rows (" + std::to_string(node_embeddings.rows()) +
        ") != store nodes (" +
        std::to_string(store.num_users() + store.num_items()) + ")");
  }
  if (node_embeddings.cols() <= 0) {
    return core::Status::InvalidArgument("embeddings must have positive width");
  }
  DARE_ASSIGN_OR_RETURN(data::ResidentInteractions seen,
                        data::ResidentInteractions::FromStoreSorted(store));
  return std::shared_ptr<const ModelSnapshot>(new ModelSnapshot(
      std::move(node_embeddings), store.num_users(), store.num_items(),
      /*dataset=*/nullptr,
      std::make_unique<const data::ResidentInteractions>(std::move(seen)),
      version));
}

}  // namespace darec::serve
