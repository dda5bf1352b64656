#include "topk/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/thread_pool.h"
#include "tensor/simd/kernels.h"
#include "tensor/workspace.h"

namespace darec::topk {

namespace {

namespace simd = tensor::simd;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// A panel is exactly one register tile of the matmul kernel wide, so every
// panel runs the kernel's fixed-width hot path.
static_assert(simd::kMatMulColTile == 32, "panels are one column tile wide");
constexpr int64_t kPanel = simd::kMatMulColTile;
constexpr int64_t kRowTile = simd::kMatMulRowTile;

// Row-group sizing: a batch is cut into about kTargetGroups tasks of whole
// register tiles, between one tile and kMaxGroupRows rows. At the bound a
// task's score tile is 32 x 32 floats (4 KB), L1-resident beside the panel
// it was scored from.
constexpr int64_t kTargetGroups = 4;
constexpr int64_t kMaxGroupRows = 32;

// Packing work per ParallelFor chunk at engine build (item coordinates).
constexpr int64_t kPackWorkPerChunk = 1 << 16;

/// Rows per task: clamp(round_up(⌈rows / 4⌉, 4), 4, 32) — a function of the
/// batch size only. A 64-user flush runs as 4 groups of 16 rows, a 10-user
/// flush as groups of 4, 4 and 2.
int64_t GroupRows(int64_t rows) {
  const int64_t share = (rows + kTargetGroups - 1) / kTargetGroups;
  const int64_t tiled = (share + kRowTile - 1) / kRowTile * kRowTile;
  return std::clamp(tiled, kRowTile, kMaxGroupRows);
}

/// tile[r * 32 + j] = rows[r] · column j of `panel` for r < num_rows. The
/// tile is zeroed first, so each score is written as 0 + acc: the kernel's
/// per-element chain (acc from 0 over ascending p, multiply then add) into
/// a zero-initialized output — bit for bit what a scalar ascending-p dot,
/// or tensor::MatMul into a fresh output, produces.
void ScorePanel(const simd::KernelTable& kt, const float* rows,
                int64_t num_rows, const float* panel, int64_t dim,
                float* tile) {
  std::fill(tile, tile + num_rows * kPanel, 0.0f);
  kt.matmul_row_range(rows, panel, tile, dim, kPanel, 0, num_rows);
}

/// One row's bounded top-`take` heap, fed its candidates in ascending item
/// id order. `heap` is a binary heap under RanksBefore whose root is the
/// currently-worst kept item. The row's seen list is consumed by a forward
/// cursor that skips every id below the candidate, so duplicate ids in the
/// list cannot stall it.
struct RowSelector {
  std::vector<ScoredItem>* heap = nullptr;
  ItemSpan seen;
  size_t seen_pos = 0;
  int64_t take = 0;
  MaskMode mask_mode = MaskMode::kDrop;
  bool full = false;
  float threshold = 0.0f;  // the root's score once the heap is full

  /// Offers items [first, first + width) with scores[0, width).
  ///
  /// Once the heap is full, a score that is not > the root's score is
  /// skipped before the seen list is even consulted. The skip is exact: no
  /// such candidate could pass Offer's RanksBefore test, because every kept
  /// id is below the candidate's (so an equal score ranks after the root),
  /// NaN compares false both ways, and a masked item's -inf never beats a
  /// full heap.
  void Feed(const float* scores, int64_t first, int64_t width) {
    int64_t j = 0;
    for (; j < width && !full; ++j) Offer(first + j, scores[j]);
    // The hot loop once the heap is full: one compare per item.
    for (; j < width; ++j) {
      if (scores[j] > threshold) Offer(first + j, scores[j]);
    }
  }

  void Offer(int64_t item, float score) {
    constexpr RanksBefore ranks_before{};
    while (seen_pos < seen.count && seen[seen_pos] < item) ++seen_pos;
    if (seen_pos < seen.count && seen[seen_pos] == item) {
      if (mask_mode == MaskMode::kDrop) return;
      score = kNegInf;
    }
    const ScoredItem candidate{item, score};
    std::vector<ScoredItem>& out = *heap;
    if (!full) {
      out.push_back(candidate);
      std::push_heap(out.begin(), out.end(), ranks_before);
    } else if (ranks_before(candidate, out.front())) {
      std::pop_heap(out.begin(), out.end(), ranks_before);
      out.back() = candidate;
      std::push_heap(out.begin(), out.end(), ranks_before);
    } else {
      return;
    }
    full = static_cast<int64_t>(out.size()) == take;
    if (full) threshold = out.front().score;
  }
};

}  // namespace

Engine::Engine(const tensor::Matrix& node_embeddings, int64_t num_users,
               int64_t num_items)
    : nodes_(&node_embeddings),
      num_users_(num_users),
      num_items_(num_items),
      num_panels_((num_items + kPanel - 1) / kPanel) {
  DARE_CHECK_GE(num_users_, 0);
  DARE_CHECK_GE(num_items_, 0);
  DARE_CHECK_EQ(nodes_->rows(), num_users_ + num_items_)
      << "node embeddings must hold user rows then item rows";
  const int64_t dim = nodes_->cols();
  panels_ = tensor::Matrix(num_panels_ * dim, kPanel);
  item_norms_ = tensor::Matrix(num_items_, 1);
  // Each panel is packed straight from the item rows; the last panel's
  // unused columns keep the constructor's zeros. Each item's L2 norm is
  // taken on the way with RowNorms' per-row chain (double accumulation in
  // ascending order), so the norms keep their bits.
  const int64_t grain = std::max<int64_t>(
      1, kPackWorkPerChunk / (kPanel * std::max<int64_t>(1, dim)));
  core::ParallelFor(0, num_panels_, grain, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      float* panel = panels_.data() + p * dim * kPanel;
      const int64_t first = p * kPanel;
      const int64_t width = std::min(kPanel, num_items_ - first);
      for (int64_t j = 0; j < width; ++j) {
        const float* row = nodes_->Row(num_users_ + first + j);
        double acc = 0.0;
        for (int64_t c = 0; c < dim; ++c) {
          panel[c * kPanel + j] = row[c];
          acc += double(row[c]) * row[c];
        }
        item_norms_(first + j, 0) = static_cast<float>(std::sqrt(acc));
      }
    }
  });
}

const float* Engine::Panel(int64_t p) const {
  return panels_.data() + p * nodes_->cols() * kPanel;
}

void Engine::TopKGroup(const int64_t* users, int64_t rows, int64_t take,
                       const SeenItemsFn& seen, MaskMode mask_mode,
                       std::vector<ScoredItem>* lists) const {
  DARE_DCHECK(rows >= 1 && rows <= kMaxGroupRows);
  const int64_t dim = nodes_->cols();
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix block(ws, rows * dim);
  block->ResetShape(rows, dim);
  tensor::ScratchMatrix tile(ws, rows * kPanel);
  tile->ResetShape(rows, kPanel);
  std::array<RowSelector, kMaxGroupRows> selectors;
  for (int64_t r = 0; r < rows; ++r) {
    block->CopyRowFrom(*nodes_, users[r], r);
    RowSelector& s = selectors[static_cast<size_t>(r)];
    s.heap = &lists[r];
    s.heap->clear();
    s.seen = seen ? seen(users[r]) : ItemSpan();
    s.take = take;
    s.mask_mode = mask_mode;
  }
  const simd::KernelTable& kt = simd::Kernels();
  for (int64_t p = 0; p < num_panels_; ++p) {
    ScorePanel(kt, block->data(), rows, Panel(p), dim, tile->data());
    const int64_t first = p * kPanel;
    const int64_t width = std::min(kPanel, num_items_ - first);
    for (int64_t r = 0; r < rows; ++r) {
      selectors[static_cast<size_t>(r)].Feed(tile->Row(r), first, width);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    std::sort(lists[r].begin(), lists[r].end(), RanksBefore());
  }
}

std::vector<std::vector<ScoredItem>> Engine::TopK(
    const std::vector<int64_t>& users, int64_t k, const SeenItemsFn& seen,
    MaskMode mask_mode) const {
  DARE_CHECK_GT(k, 0);
  const int64_t num_queries = static_cast<int64_t>(users.size());
  std::vector<std::vector<ScoredItem>> lists(static_cast<size_t>(num_queries));
  if (num_queries == 0 || num_items_ == 0) return lists;
  for (int64_t user : users) {
    DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
  }
  const int64_t take = ClampK(k, num_items_);
  const int64_t group = GroupRows(num_queries);
  const int64_t num_groups = (num_queries + group - 1) / group;
  core::ParallelFor(0, num_groups, 1, [&](int64_t g0, int64_t g1) {
    for (int64_t g = g0; g < g1; ++g) {
      const int64_t first = g * group;
      TopKGroup(users.data() + first, std::min(group, num_queries - first),
                take, seen, mask_mode, lists.data() + first);
    }
  });
  return lists;
}

void Engine::TopKOne(int64_t user, int64_t k, const SeenItemsFn& seen,
                     MaskMode mask_mode, std::vector<ScoredItem>* out) const {
  DARE_CHECK_GT(k, 0);
  DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
  out->clear();
  if (num_items_ == 0) return;
  TopKGroup(&user, 1, ClampK(k, num_items_), seen, mask_mode, out);
}

void Engine::ScoreAllItems(const float* query, float* scores) const {
  const int64_t dim = nodes_->cols();
  const simd::KernelTable& kt = simd::Kernels();
  float tile[kPanel];
  for (int64_t p = 0; p < num_panels_; ++p) {
    ScorePanel(kt, query, 1, Panel(p), dim, tile);
    const int64_t first = p * kPanel;
    std::copy(tile, tile + std::min(kPanel, num_items_ - first), scores + first);
  }
}

}  // namespace darec::topk
