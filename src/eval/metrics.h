#ifndef DAREC_EVAL_METRICS_H_
#define DAREC_EVAL_METRICS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/interactions.h"
#include "tensor/matrix.h"

namespace darec::eval {

/// Ranking metrics keyed by K. Recall@K and NDCG@K are the paper's two
/// metrics; Precision@K, HitRate@K and MRR@K are provided for completeness
/// (computed in the same pass at negligible cost).
struct MetricSet {
  std::map<int64_t, double> recall;
  std::map<int64_t, double> ndcg;
  std::map<int64_t, double> precision;
  std::map<int64_t, double> hit_rate;
  /// Mean reciprocal rank of the first hit within the top-K.
  std::map<int64_t, double> mrr;

  /// "R@5=0.0537 N@5=0.0537 ..." in ascending K (paper metrics only).
  std::string ToString() const;
};

/// Which held-out split to rank against.
enum class EvalSplit { kTest, kValidation };

struct EvalOptions {
  std::vector<int64_t> ks = {5, 10, 20};
  EvalSplit split = EvalSplit::kTest;
};

/// Recall@K for one ranked list: |hits in top-K| / |relevant|.
/// `relevant` must be sorted.
double RecallAtK(const std::vector<int64_t>& ranked,
                 std::span<const int64_t> relevant, int64_t k);

/// NDCG@K with binary relevance under the all-ranking protocol:
/// DCG = Σ 1/log2(pos+2) over hit positions, normalized by the ideal DCG of
/// min(K, |relevant|) leading hits. `relevant` must be sorted.
double NdcgAtK(const std::vector<int64_t>& ranked,
               std::span<const int64_t> relevant, int64_t k);

/// Precision@K: |hits in top-K| / K. `relevant` must be sorted.
double PrecisionAtK(const std::vector<int64_t>& ranked,
                    std::span<const int64_t> relevant, int64_t k);

/// HitRate@K: 1 if any relevant item is in the top-K, else 0.
double HitRateAtK(const std::vector<int64_t>& ranked,
                  std::span<const int64_t> relevant, int64_t k);

/// MRR@K: 1/(position+1) of the first hit within the top-K, else 0.
double MrrAtK(const std::vector<int64_t>& ranked,
              std::span<const int64_t> relevant, int64_t k);

/// All-ranking evaluation: for every user with held-out items, scores all
/// items by inner product, masks that user's training items, and averages
/// Recall@K / NDCG@K over users. `node_embeddings` holds user rows
/// [0, num_users) then item rows.
///
/// Runs on the batched top-K engine (topk::Engine): groups of users are
/// scored against packed item panels straight into per-user bounded heaps
/// with the deterministic (score desc, id asc) tie-break, so results are
/// bit-identical at any thread count — and bitwise equal to the per-user
/// scalar loop this replaced whenever scores are tie-free. Training items
/// are masked at -inf; a seen list may hold duplicate ids (unsorted
/// training rows are sorted, not deduplicated) and still masks each item.
MetricSet EvaluateRanking(const tensor::Matrix& node_embeddings,
                          const data::Dataset& dataset,
                          const EvalOptions& options = EvalOptions());

/// Streamed evaluation over InteractionStores: walks the intersection
/// segments of the training and held-out stores' row-block partitions, so
/// both stores are touched one block at a time (O(shard) resident for
/// memory-mapped stores) and per-user results are accumulated in ascending
/// user order. Because the top-K engine's per-user results are independent
/// of query batching, the metrics are bitwise identical to the resident
/// Dataset overload — which now routes through this function.
/// `options.split` is ignored: the held-out store IS the split.
MetricSet EvaluateRanking(const tensor::Matrix& node_embeddings,
                          const data::InteractionStore& train,
                          const data::InteractionStore& heldout,
                          const EvalOptions& options = EvalOptions());

}  // namespace darec::eval

#endif  // DAREC_EVAL_METRICS_H_
