#ifndef DAREC_TOPK_ENGINE_H_
#define DAREC_TOPK_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace darec::topk {

/// One ranked item with its raw inner-product score.
struct ScoredItem {
  int64_t item = 0;
  float score = 0.0f;

  friend bool operator==(const ScoredItem& a, const ScoredItem& b) {
    return a.item == b.item && a.score == b.score;
  }
};

/// What to do with a user's masked (seen) items.
enum class MaskMode {
  /// Keep them in the ranking with score -inf — the all-ranking evaluation
  /// convention. They can still pad the tail of a top-K list when fewer than
  /// K items are eligible, exactly like the per-user eval loop this engine
  /// replaced.
  kScoreNegInf,
  /// Remove them from the output entirely — the serving convention; each
  /// list is clamped to the user's eligible-item count.
  kDrop,
};

struct EngineOptions {
  /// Users scored per GEMM block; bounds the score-buffer working set to
  /// `block_users * num_items` floats. Values < 1 are clamped to 1. The
  /// block size never affects results: scoring and selection are per-user.
  int64_t block_users = 128;
};

/// A non-owning view of one user's sorted masked-item list. Converts
/// implicitly from the containers every seen-list producer already holds — a
/// vector (or pointer to one, where nullptr means "nothing seen"), a
/// std::span into a memory-mapped shard block, or a raw pointer + length —
/// so resident and block-streamed data sources feed the same engine without
/// copying ids. The referenced ids must stay alive and unchanged for the
/// duration of the TopK call that receives the span.
struct ItemSpan {
  const int64_t* ids = nullptr;
  size_t count = 0;

  ItemSpan() = default;
  ItemSpan(const int64_t* data, size_t size) : ids(data), count(size) {}
  ItemSpan(const std::vector<int64_t>& items)  // NOLINT(runtime/explicit)
      : ids(items.data()), count(items.size()) {}
  ItemSpan(const std::vector<int64_t>* items)  // NOLINT(runtime/explicit)
      : ids(items != nullptr ? items->data() : nullptr),
        count(items != nullptr ? items->size() : 0) {}
  ItemSpan(std::span<const int64_t> items)  // NOLINT(runtime/explicit)
      : ids(items.data()), count(items.size()) {}

  bool empty() const { return count == 0; }
  int64_t operator[](size_t i) const { return ids[i]; }
};

/// Sorted ascending list of item ids to mask for `user` (empty for none).
/// Invoked from pool worker threads — must be a pure lookup.
using SeenItemsFn = std::function<ItemSpan(int64_t user)>;

/// The one k-clamp used everywhere a requested k meets a limit: the engine's
/// item-count bound and the serving tier's degradation cap (`k_degraded`)
/// both funnel through it, so a clamped request is indistinguishable — and
/// bitwise identical — to a request submitted with the clamped k in the
/// first place (a top-k' list is a prefix of the top-k list under the
/// deterministic total order). `cap <= 0` means "no cap".
inline int64_t ClampK(int64_t k, int64_t cap) {
  return cap > 0 ? std::min(k, cap) : k;
}

/// Batched top-K scoring engine — the one scoring core shared by the
/// all-ranking evaluation (`eval::EvaluateRanking`), the serving facade
/// (`serve::Recommender`), and the online tier (`serve::Server`). A block
/// of users is scored against every item as one blocked `MatMul(U_block,
/// Iᵀ)` (the PR 1 register-tiled kernel), each user's sorted seen list is
/// masked in a linear merge walk, and a parallel per-row bounded-heap
/// select extracts the top-K with the deterministic (score desc, id asc)
/// tie-break. All chunking derives from shapes only (core::ParallelFor), so
/// ranked lists are bit-identical at any thread count and any block size.
/// Block and score buffers are drawn from the global tensor::Workspace, so
/// steady-state queries perform no Matrix allocations.
///
/// Thread-compatible for concurrent TopK/TopKOne calls (the engine is
/// immutable after construction).
class Engine {
 public:
  /// `node_embeddings` holds user rows [0, num_users) then item rows, as
  /// produced by pipeline::TrainResult::final_embeddings. It is held by
  /// pointer and must outlive the engine. The d x I transposed item block
  /// and the item L2 norms are precomputed here, once.
  Engine(const tensor::Matrix& node_embeddings, int64_t num_users,
         int64_t num_items, const EngineOptions& options = EngineOptions());

  /// Ranked top-min(k, num_items) list for every queried user (ids in
  /// [0, num_users)), highest score first, ties broken by ascending item id.
  /// `seen` may be empty (no masking). Under kDrop each list is further
  /// clamped to the user's eligible-item count.
  std::vector<std::vector<ScoredItem>> TopK(
      const std::vector<int64_t>& users, int64_t k, const SeenItemsFn& seen,
      MaskMode mask_mode) const;

  /// Single-user TopK writing into `out` (cleared, then filled best-first).
  /// Identical to TopK({user}, ...).front() but with no per-request list-of
  /// -lists or query-vector churn — the serving fast path. `out`'s capacity
  /// is reused across calls.
  void TopKOne(int64_t user, int64_t k, const SeenItemsFn& seen,
               MaskMode mask_mode, std::vector<ScoredItem>* out) const;

  /// Precomputed d x num_items transposed item block: scores any row block
  /// of queries against all items with one no-transpose GEMM.
  const tensor::Matrix& items_transposed() const { return items_t_; }

  /// Precomputed num_items x 1 item L2 norms (cosine denominators).
  const tensor::Matrix& item_norms() const { return item_norms_; }

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }

 private:
  /// Scores users[b0, b1) into a pooled block of float score rows and runs
  /// the parallel per-row select into lists[b0, b1).
  void ScoreAndSelectBlock(const std::vector<int64_t>& users, int64_t b0,
                           int64_t b1, int64_t take, const SeenItemsFn& seen,
                           MaskMode mask_mode,
                           std::vector<std::vector<ScoredItem>>* lists) const;

  const tensor::Matrix* nodes_;
  int64_t num_users_;
  int64_t num_items_;
  EngineOptions options_;
  tensor::Matrix items_t_;     // d x I
  tensor::Matrix item_norms_;  // I x 1
};

}  // namespace darec::topk

#endif  // DAREC_TOPK_ENGINE_H_
