#ifndef DAREC_TENSOR_OPS_H_
#define DAREC_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace darec::tensor {

// Differentiable operations. Each returns a new Variable whose node records
// how to push gradients back to its inputs. Shapes are validated eagerly.

// --- Linear algebra -----------------------------------------------------

/// C = op(a) * op(b) with optional transposes.
Variable MatMul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);

/// C = s * b where `s` is a constant sparse matrix (gradient flows to b
/// only). `s` must outlive the backward pass; it is held by shared_ptr.
Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& b);

// --- Elementwise / broadcast --------------------------------------------

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
/// Elementwise product.
Variable Mul(const Variable& a, const Variable& b);
/// a + b with b a 1 x cols row vector broadcast over a's rows (bias add).
Variable AddRowBroadcast(const Variable& a, const Variable& b);
Variable ScalarMul(const Variable& a, float s);
Variable AddScalar(const Variable& a, float s);

Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float negative_slope = 0.01f);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Exp(const Variable& a);
/// Natural log of (a + eps); eps guards against log(0).
Variable Log(const Variable& a, float eps = 1e-12f);
Variable Square(const Variable& a);
/// ln(1 + e^x), numerically stable.
Variable Softplus(const Variable& a);

/// Scales each row of `a` to unit L2 norm; rows with norm < eps pass through.
Variable RowL2Normalize(const Variable& a, float eps = 1e-12f);

/// Stops gradient flow: returns a constant holding a copy of a's value.
Variable Detach(const Variable& a);

/// Inverted dropout: zeroes each element with probability drop_prob and
/// scales survivors by 1/(1-drop_prob). drop_prob == 0 is a no-op.
Variable Dropout(const Variable& a, float drop_prob, core::Rng& rng);

// --- Structure ------------------------------------------------------------

/// Vertically stacks a (r_a x c) over b (r_b x c).
Variable ConcatRows(const Variable& a, const Variable& b);
/// Rows [start, start+count) of a.
Variable SliceRows(const Variable& a, int64_t start, int64_t count);
/// out[i] = a[indices[i]]; gradient scatter-adds (duplicates accumulate).
Variable GatherRows(const Variable& a, std::vector<int64_t> indices);

// --- Reductions -----------------------------------------------------------

/// Sum of all elements -> 1x1.
Variable Sum(const Variable& a);
/// Mean of all elements -> 1x1.
Variable Mean(const Variable& a);
/// Squared Frobenius norm -> 1x1.
Variable SumSquares(const Variable& a);
/// Per-row sum -> rows x 1.
Variable RowSum(const Variable& a);

/// Row-wise softmax.
Variable SoftmaxRows(const Variable& a);
/// Per-row log-sum-exp -> rows x 1 (numerically stable).
Variable RowLogSumExp(const Variable& a);
/// Main diagonal of a square matrix -> rows x 1.
Variable TakeDiagonal(const Variable& a);

// --- Composite losses / helpers -------------------------------------------

/// Mean of several same-shaped variables (e.g. LightGCN layer pooling).
Variable MeanOf(const std::vector<Variable>& vars);

/// Row dot products -> rows x 1 (ranking scores from paired embeddings).
/// A fused op (see below): ≡ RowSum(Mul(a, b)).
Variable RowDot(const Variable& a, const Variable& b);

/// Row-wise cosine similarity -> rows x 1. A fused op (see below):
/// ≡ RowSum(Mul(RowL2Normalize(a), RowL2Normalize(b))).
Variable CosineRowSimilarity(const Variable& a, const Variable& b);

/// BPR pairwise loss: mean softplus(neg - pos) over rows (inputs Bx1).
Variable BprLoss(const Variable& pos_scores, const Variable& neg_scores);

/// InfoNCE with in-batch negatives: rows of a and b are positives of each
/// other; both are L2-normalized internally; logits scaled by 1/temperature.
Variable InfoNceLoss(const Variable& a, const Variable& b, float temperature);

/// Mean squared error over all elements.
Variable MseLoss(const Variable& a, const Variable& b);

/// L2 regularization: 0.5 * sum of squared elements over the given variables.
Variable L2Penalty(const std::vector<Variable>& vars);

// --- Fused loss ops (DESIGN.md §14) -----------------------------------------
//
// Each op runs a whole elementwise/reduction chain in one traversal and
// records one graph node, whose backward applies the chain's per-op
// gradient formulas in the chain's accumulation order. Value and input
// gradients are bitwise equal to the eager composition named in the comment
// (fused_ops_test holds each op to it). RowDot and CosineRowSimilarity above
// are fused the same way.

/// ≡ SumSquares(Sub(a, b)) -> 1x1.
Variable FusedSubSumSquares(const Variable& a, const Variable& b);
/// ≡ Mean(Square(AddScalar(a, bias))) with has_bias, else
/// Mean(Square(a)) -> 1x1.
Variable FusedSquareMean(const Variable& a, bool has_bias, float bias);
/// ≡ Sum(Exp(ScalarMul(AddScalar(ScalarMul(a, s1), b1), s2))) -> 1x1.
Variable FusedExpAffineSum(const Variable& a, float s1, float b1, float s2);
/// ≡ Sum(Mul(t, Sub(a, b))) -> 1x1.
Variable FusedMulSubSum(const Variable& t, const Variable& a,
                        const Variable& b);

}  // namespace darec::tensor

#endif  // DAREC_TENSOR_OPS_H_
