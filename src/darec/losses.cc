#include "darec/losses.h"

#include <algorithm>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace darec::model {

using tensor::Variable;

// The elementwise/reduction chains below run as fused ops: one traversal
// and one graph node each, bitwise equal to the eager composition named
// beside it (DESIGN.md §14). MatMul / softmax / clustering stages stay
// eager — they are not elementwise chains.

Variable OrthogonalityLoss(const Variable& specific, const Variable& shared) {
  // ≡ Mean(Square(CosineRowSimilarity(specific, shared))).
  return tensor::FusedSquareMean(tensor::CosineRowSimilarity(specific, shared),
                                 /*has_bias=*/false, 0.0f);
}

Variable UniformityLoss(const Variable& specific) {
  const int64_t n = specific.rows();
  DARE_CHECK_GT(n, 1) << "uniformity needs at least two rows";
  Variable normalized = tensor::RowL2Normalize(specific);
  Variable sims = tensor::MatMul(normalized, normalized, false, true);
  // ||x - y||² = 2 - 2 x·y on the unit sphere; the Gaussian-kernel sum
  // Sum(Exp(-2 · (2 - 2·sims))) is a single traversal of `sims`.
  // The n self-pairs (each exp(0) = 1 exactly) are excluded from the mean.
  Variable kernel_sum = tensor::FusedExpAffineSum(sims, -2.0f, 2.0f, -2.0f);
  return tensor::Log(tensor::ScalarMul(
      tensor::AddScalar(kernel_sum, -static_cast<float>(n)),
      1.0f / static_cast<float>(n * (n - 1))));
}

Variable GlobalStructureLoss(const Variable& shared_cf, const Variable& shared_llm) {
  DARE_CHECK_EQ(shared_cf.rows(), shared_llm.rows());
  const int64_t n = shared_cf.rows();
  Variable ncf = tensor::RowL2Normalize(shared_cf);
  Variable nllm = tensor::RowL2Normalize(shared_llm);
  Variable sim_cf = tensor::MatMul(ncf, ncf, false, true);
  Variable sim_llm = tensor::MatMul(nllm, nllm, false, true);
  // ≡ SumSquares(Sub(sim_cf, sim_llm)) / n².
  return tensor::ScalarMul(tensor::FusedSubSumSquares(sim_cf, sim_llm),
                           1.0f / static_cast<float>(n) / static_cast<float>(n));
}

Variable GlobalStructureLossSoftmax(const Variable& shared_cf,
                                    const Variable& shared_llm, float temperature) {
  DARE_CHECK_EQ(shared_cf.rows(), shared_llm.rows());
  DARE_CHECK_GT(temperature, 0.0f);
  const int64_t n = shared_cf.rows();
  const float inv_tau = 1.0f / temperature;

  Variable ncf = tensor::RowL2Normalize(shared_cf);
  Variable nllm = tensor::RowL2Normalize(shared_llm);
  // Mask self-similarity so each row's target is a distribution over
  // *other* instances, not the trivial self-match. Built in a pooled buffer
  // (1.0 * 1e4f == 1e4f exactly, so writing 1e4f directly matches the old
  // Scale(Identity(n), 1e4f) bitwise).
  tensor::Matrix mask = tensor::Workspace::Global().Acquire(n, n);
  for (int64_t i = 0; i < n; ++i) mask(i, i) = 1e4f;
  Variable diag_mask = Variable::Constant(std::move(mask));
  Variable logits_cf = tensor::Sub(
      tensor::ScalarMul(tensor::MatMul(ncf, ncf, false, true), inv_tau), diag_mask);
  Variable logits_llm = tensor::Detach(tensor::Sub(
      tensor::ScalarMul(tensor::MatMul(nllm, nllm, false, true), inv_tau),
      diag_mask));

  Variable targets = tensor::SoftmaxRows(logits_llm);
  // Row-wise cross-entropy: mean_i Σ_j t_ij (logsumexp_i - s_ij).
  tensor::Matrix ones = tensor::Workspace::Global().Acquire(1, n);
  ones.Fill(1.0f);
  Variable lse_broadcast = tensor::MatMul(tensor::RowLogSumExp(logits_cf),
                                          Variable::Constant(std::move(ones)));
  // Sum(targets ∘ (lse − s)) is one traversal of the three n×n operands;
  // `targets` is detached, so its gradient leg is skipped.
  return tensor::ScalarMul(
      tensor::FusedMulSubSum(targets, lse_broadcast, logits_cf),
      1.0f / static_cast<float>(n));
}

namespace {

/// Clusters the normalized rows, warm-starting from `prev_centers` when
/// shapes allow; writes the new centers back for the next step.
cluster::KMeansResult ClusterModality(const tensor::Matrix& normalized_points,
                                      const cluster::KMeansOptions& options,
                                      tensor::Matrix* prev_centers,
                                      core::Rng& rng) {
  cluster::KMeansResult result;
  if (prev_centers != nullptr && prev_centers->rows() == options.num_clusters &&
      prev_centers->cols() == normalized_points.cols()) {
    // Move the centers through the clustering and back: the warm-start path
    // runs every align step, and cycling one buffer keeps it allocation-free
    // (downstream only reads result.assignments).
    result = cluster::RunKMeansFrom(normalized_points,
                                    std::move(*prev_centers), options);
  } else {
    result = cluster::RunKMeans(normalized_points, options, rng);
  }
  if (prev_centers != nullptr) *prev_centers = std::move(result.centers);
  return result;
}

}  // namespace

Variable LocalStructureLoss(const Variable& shared_cf, const Variable& shared_llm,
                            int64_t num_clusters, MatchingStrategy strategy,
                            int64_t kmeans_iterations, core::Rng& rng,
                            LocalAlignState* state) {
  DARE_CHECK_EQ(shared_cf.rows(), shared_llm.rows());
  const int64_t k = std::min<int64_t>(num_clusters, shared_cf.rows());
  DARE_CHECK_GT(k, 0);

  // Eq. 6: preference centers via k-means on each modality (assignments
  // are treated as constants; center coordinates stay differentiable).
  // Clustering runs on L2-normalized rows, consistent with the cosine
  // geometry of Eq. 9.
  cluster::KMeansOptions kmeans_options;
  kmeans_options.num_clusters = k;
  kmeans_options.max_iterations = kmeans_iterations;
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix normalized(
      ws, std::max(shared_cf.value().size(), shared_llm.value().size()));
  tensor::RowNormalizeInto(shared_cf.value(), normalized.get());
  cluster::KMeansResult cf_clusters =
      ClusterModality(*normalized, kmeans_options,
                      state != nullptr ? &state->cf_centers : nullptr, rng);
  tensor::RowNormalizeInto(shared_llm.value(), normalized.get());
  cluster::KMeansResult llm_clusters =
      ClusterModality(*normalized, kmeans_options,
                      state != nullptr ? &state->llm_centers : nullptr, rng);

  tensor::Matrix averaging = ws.AcquireFor(k * shared_cf.rows());
  cluster::AssignmentAveragingMatrixInto(cf_clusters.assignments, k, &averaging);
  Variable centers_cf =
      tensor::MatMul(Variable::Constant(std::move(averaging)), shared_cf);
  averaging = ws.AcquireFor(k * shared_llm.rows());
  cluster::AssignmentAveragingMatrixInto(llm_clusters.assignments, k, &averaging);
  Variable centers_llm =
      tensor::MatMul(Variable::Constant(std::move(averaging)), shared_llm);

  // Eq. 7–8: adaptive preference matching on the current center values.
  tensor::ScratchMatrix dist(ws, k * k);
  CenterDistancesInto(centers_cf.value(), centers_llm.value(), dist.get());
  CenterMatching matching = strategy == MatchingStrategy::kGreedy
                                ? GreedyMatchCenters(*dist)
                                : HungarianMatchCenters(*dist);
  Variable matched_cf = tensor::GatherRows(centers_cf, matching.left);
  Variable matched_llm = tensor::GatherRows(centers_llm, matching.right);

  // Eq. 9: cosine similarity between every CF/LLM center pair.
  Variable sims = tensor::MatMul(tensor::RowL2Normalize(matched_cf),
                                 tensor::RowL2Normalize(matched_llm), false, true);

  // Eq. 10: matched (diagonal) centers agree; unmatched pairs pushed apart.
  // The diagonal penalty Mean(Square(diag − 1)) is one fused op; the
  // off-diagonal term stays eager because `sims` and `diag` both feed two
  // consumers.
  Variable diag = tensor::TakeDiagonal(sims);
  Variable diag_term =
      tensor::FusedSquareMean(diag, /*has_bias=*/true, -1.0f);
  if (k == 1) return diag_term;
  Variable off_diag_sq =
      tensor::Sub(tensor::SumSquares(sims), tensor::SumSquares(diag));
  Variable off_term = tensor::ScalarMul(
      off_diag_sq, 1.0f / static_cast<float>(k * k - k));
  return tensor::Add(diag_term, off_term);
}

}  // namespace darec::model
