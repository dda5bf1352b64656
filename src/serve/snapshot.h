#ifndef DAREC_SERVE_SNAPSHOT_H_
#define DAREC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "core/statusor.h"
#include "data/dataset.h"
#include "data/interactions.h"
#include "tensor/matrix.h"
#include "topk/engine.h"

namespace darec::serve {

/// One immutable, self-contained servable model: the node embeddings, the
/// scoring engine precomputed over them (packed item panels, norms),
/// and the per-user seen-item index masked from results. Snapshots are
/// what serve::Server swaps atomically on ReloadModel — every field is set
/// at Create and never mutated, so any number of threads may score against
/// one snapshot while another is being built, and an in-flight batch keeps
/// its snapshot alive through the shared_ptr it loaded (DESIGN.md §12).
class ModelSnapshot {
 public:
  /// `node_embeddings` holds user rows [0, num_users) then item rows, as
  /// produced by pipeline::TrainResult::final_embeddings. `dataset` must
  /// outlive the snapshot. `version` is an application-chosen tag echoed
  /// into every result answered by this snapshot (reload observability).
  /// Fails on shape mismatch. `build_int8` is kept only for source
  /// compatibility with positional callers: int8 scoring was removed, so it
  /// must be false (true fails with InvalidArgument).
  static core::StatusOr<std::shared_ptr<const ModelSnapshot>> Create(
      tensor::Matrix node_embeddings, const data::Dataset* dataset,
      bool build_int8 = false, uint64_t version = 0);

  /// Builds from a training InteractionStore instead of a Dataset: the
  /// store is streamed once at build time and compacted into an owned
  /// resident sorted seen-index (serving needs random per-user access, so
  /// the O(nnz) index is paid here, not per request). The store itself is
  /// not retained and may be discarded after Create returns. `build_int8`
  /// and `version` as for Create.
  static core::StatusOr<std::shared_ptr<const ModelSnapshot>> CreateFromStore(
      tensor::Matrix node_embeddings, const data::InteractionStore& store,
      bool build_int8 = false, uint64_t version = 0);

  const topk::Engine& engine() const { return *engine_; }
  uint64_t version() const { return version_; }
  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }

  /// The user's training items, sorted ascending — the mask list handed to
  /// the engine. Valid for the snapshot's lifetime.
  topk::ItemSpan SeenOf(int64_t user) const {
    if (dataset_ != nullptr) return dataset_->TrainItemsOfUser(user);
    return topk::ItemSpan(seen_->Row(user));
  }

 private:
  ModelSnapshot(tensor::Matrix embeddings, int64_t num_users,
                int64_t num_items, const data::Dataset* dataset,
                std::unique_ptr<const data::ResidentInteractions> seen,
                uint64_t version);

  // unique_ptr keeps the embedding matrix (and the engine's pointer into
  // it) address-stable; the snapshot itself always lives behind shared_ptr.
  std::unique_ptr<tensor::Matrix> embeddings_;
  int64_t num_users_;
  int64_t num_items_;
  const data::Dataset* dataset_;  // Dataset-backed snapshots only.
  std::unique_ptr<const data::ResidentInteractions> seen_;  // Store-backed.
  std::unique_ptr<topk::Engine> engine_;
  uint64_t version_;
};

}  // namespace darec::serve

#endif  // DAREC_SERVE_SNAPSHOT_H_
