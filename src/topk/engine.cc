#include "topk/engine.h"

#include <algorithm>
#include <limits>

#include "core/check.h"
#include "core/thread_pool.h"
#include "tensor/workspace.h"

namespace darec::topk {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// The engine-wide ranking order: score descending, item id ascending.
/// A functor (not a function pointer) so the heap and the per-item fast
/// path inline it.
struct RanksBefore {
  bool operator()(const ScoredItem& a, const ScoredItem& b) const {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  }
};

// Rows per ParallelFor chunk for the per-row select (O(num_items) work/row).
int64_t SelectGrain(int64_t num_items) {
  constexpr int64_t kTargetWorkPerChunk = 1 << 16;
  return std::max<int64_t>(1, kTargetWorkPerChunk / std::max<int64_t>(1, num_items));
}

/// Top-`k` of one score row via a bounded heap: `out` is kept as a binary
/// heap whose root is the currently-worst kept item (RanksBefore as the
/// heap's less-than makes the max element the one ranking last), so each of
/// the num_items candidates costs O(1) unless it displaces the root. The
/// result is sorted best-first. `seen` is a sorted id list consumed by a
/// merge walk — no per-item binary search.
void SelectTopK(const float* scores, int64_t num_items, int64_t k,
                ItemSpan seen, MaskMode mask_mode,
                std::vector<ScoredItem>& out) {
  constexpr RanksBefore ranks_before{};
  out.clear();
  size_t seen_pos = 0;
  const size_t seen_size = seen.count;
  for (int64_t item = 0; item < num_items; ++item) {
    float score = scores[item];
    if (seen_pos < seen_size && seen[seen_pos] == item) {
      ++seen_pos;
      if (mask_mode == MaskMode::kDrop) continue;
      score = kNegInf;
    }
    const ScoredItem candidate{item, score};
    if (static_cast<int64_t>(out.size()) < k) {
      out.push_back(candidate);
      std::push_heap(out.begin(), out.end(), ranks_before);
    } else if (ranks_before(candidate, out.front())) {
      std::pop_heap(out.begin(), out.end(), ranks_before);
      out.back() = candidate;
      std::push_heap(out.begin(), out.end(), ranks_before);
    }
  }
  std::sort(out.begin(), out.end(), ranks_before);
}

}  // namespace

Engine::Engine(const tensor::Matrix& node_embeddings, int64_t num_users,
               int64_t num_items, const EngineOptions& options)
    : nodes_(&node_embeddings),
      num_users_(num_users),
      num_items_(num_items),
      options_(options) {
  DARE_CHECK_GE(num_users_, 0);
  DARE_CHECK_GE(num_items_, 0);
  DARE_CHECK_EQ(nodes_->rows(), num_users_ + num_items_)
      << "node embeddings must hold user rows then item rows";
  options_.block_users = std::max<int64_t>(1, options_.block_users);
  const int64_t dim = nodes_->cols();
  tensor::Matrix items(num_items_, dim);
  for (int64_t i = 0; i < num_items_; ++i) {
    items.CopyRowFrom(*nodes_, num_users_ + i, i);
  }
  items_t_ = tensor::Transpose(items);
  item_norms_ = tensor::RowNorms(items);
}

void Engine::ScoreAndSelectBlock(
    const std::vector<int64_t>& users, int64_t b0, int64_t b1, int64_t take,
    const SeenItemsFn& seen, MaskMode mask_mode,
    std::vector<std::vector<ScoredItem>>* lists) const {
  const int64_t rows = b1 - b0;
  const int64_t dim = nodes_->cols();
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix scores(ws, rows * num_items_);
  // One blocked GEMM scores the whole block against every item; the inner
  // accumulation order (ascending p in float) matches a scalar per-item
  // dot, so scores are bitwise identical to the per-user loops this
  // replaced — and independent of the batch the user arrived in.
  tensor::ScratchMatrix block(ws, rows * dim);
  block->ResetShape(rows, dim);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t user = users[static_cast<size_t>(b0 + r)];
    DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
    block->CopyRowFrom(*nodes_, user, r);
  }
  tensor::MatMulInto(*block, items_t_, false, false, scores.get());
  core::ParallelFor(0, rows, SelectGrain(num_items_),
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t r = lo; r < hi; ++r) {
                        const int64_t user = users[static_cast<size_t>(b0 + r)];
                        SelectTopK(scores->Row(r), num_items_, take,
                                   seen ? seen(user) : ItemSpan(), mask_mode,
                                   (*lists)[static_cast<size_t>(b0 + r)]);
                      }
                    });
}

std::vector<std::vector<ScoredItem>> Engine::TopK(
    const std::vector<int64_t>& users, int64_t k, const SeenItemsFn& seen,
    MaskMode mask_mode) const {
  DARE_CHECK_GT(k, 0);
  const int64_t num_queries = static_cast<int64_t>(users.size());
  std::vector<std::vector<ScoredItem>> lists(static_cast<size_t>(num_queries));
  if (num_queries == 0 || num_items_ == 0) return lists;
  const int64_t take = ClampK(k, num_items_);
  for (int64_t b0 = 0; b0 < num_queries; b0 += options_.block_users) {
    const int64_t b1 = std::min(num_queries, b0 + options_.block_users);
    ScoreAndSelectBlock(users, b0, b1, take, seen, mask_mode, &lists);
  }
  return lists;
}

void Engine::TopKOne(int64_t user, int64_t k, const SeenItemsFn& seen,
                     MaskMode mask_mode, std::vector<ScoredItem>* out) const {
  DARE_CHECK_GT(k, 0);
  DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
  out->clear();
  if (num_items_ == 0) return;
  const int64_t take = ClampK(k, num_items_);
  const int64_t dim = nodes_->cols();
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix scores(ws, num_items_);
  tensor::ScratchMatrix row(ws, dim);
  row->ResetShape(1, dim);
  row->CopyRowFrom(*nodes_, user, 0);
  tensor::MatMulInto(*row, items_t_, false, false, scores.get());
  SelectTopK(scores->Row(0), num_items_, take,
             seen ? seen(user) : ItemSpan(), mask_mode, *out);
}

}  // namespace darec::topk
