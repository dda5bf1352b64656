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

/// The engine-wide ranking order: score descending, item id ascending. Every
/// ranked list in the repository (top-K, SimilarItems) sorts by it. A
/// functor, not a function, so heaps and sorts inline it.
struct RanksBefore {
  bool operator()(const ScoredItem& a, const ScoredItem& b) const {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
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

/// A non-owning view of one user's masked-item list: ids sorted ascending,
/// duplicates allowed (an unsorted training row sorted without
/// deduplication, e.g. by ResidentInteractions::FromStoreSorted, masks each
/// of its items exactly once). Converts implicitly from the containers every
/// seen-list producer already holds — a vector (or pointer to one, where
/// nullptr means "nothing seen"), a std::span into a memory-mapped shard
/// block, or a raw pointer + length — so resident and block-streamed data
/// sources feed the same engine without copying ids. The referenced ids must
/// stay alive and unchanged for the duration of the TopK call that receives
/// the span.
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

/// The ItemSpan of item ids to mask for `user` (empty for none).
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
/// (`serve::Recommender`), and the online tier (`serve::Server`).
///
/// Items are stored as packed 32-item panels (`[⌈I/32⌉][d][32]`, the last
/// one zero-padded). Queried users are split into row groups whose size
/// derives from the batch size only; each group is one pool task. A task
/// scores its rows against one panel at a time into an L1-sized scratch
/// (the SIMD `matmul_row_range` kernel with n = 32) and feeds every row's
/// bounded heap straight from that scratch, masking each user's sorted seen
/// list with a forward cursor. No users × items score block is ever
/// written. Each score is the same per-element kernel chain as a scalar
/// ascending-p dot, and each row's heap sees its items in ascending id
/// order, so ranked lists (score desc, id asc) are bit-identical at any
/// thread count and in any batch composition. Scratch is drawn from the
/// global tensor::Workspace, so warm queries perform no Matrix allocations.
///
/// Thread-compatible for concurrent TopK/TopKOne calls (the engine is
/// immutable after construction).
class Engine {
 public:
  /// `node_embeddings` holds user rows [0, num_users) then item rows, as
  /// produced by pipeline::TrainResult::final_embeddings. It is held by
  /// pointer and must outlive the engine. The item panels and the item L2
  /// norms are built here, once, in parallel over panels.
  Engine(const tensor::Matrix& node_embeddings, int64_t num_users,
         int64_t num_items);

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

  /// scores[i] = query · item i for every item (`query` holds d floats,
  /// `scores` num_items), computed from the panels with the same kernel
  /// chain TopK ranks by.
  void ScoreAllItems(const float* query, float* scores) const;

  /// Precomputed num_items x 1 item L2 norms (cosine denominators).
  const tensor::Matrix& item_norms() const { return item_norms_; }

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }

 private:
  /// Ranks users[0, rows) into lists[0, rows) (at most 32 rows): one fused
  /// pass over the item panels with one bounded heap per row.
  void TopKGroup(const int64_t* users, int64_t rows, int64_t take,
                 const SeenItemsFn& seen, MaskMode mask_mode,
                 std::vector<ScoredItem>* lists) const;

  /// Panel p: d rows of the 32 coordinates of items [32p, 32p + 32).
  const float* Panel(int64_t p) const;

  const tensor::Matrix* nodes_;
  int64_t num_users_;
  int64_t num_items_;
  int64_t num_panels_;
  tensor::Matrix panels_;      // (num_panels * d) x 32
  tensor::Matrix item_norms_;  // I x 1
};

}  // namespace darec::topk

#endif  // DAREC_TOPK_ENGINE_H_
