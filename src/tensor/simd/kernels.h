#ifndef DAREC_TENSOR_SIMD_KERNELS_H_
#define DAREC_TENSOR_SIMD_KERNELS_H_

#include <cstdint>

#include "core/cpu_features.h"

namespace darec::tensor::simd {

/// Register-tile geometry of the blocked matmul (tensor/matrix.cc splits
/// row strips on kRowTile boundaries; the per-ISA kernels tile inside).
inline constexpr int64_t kMatMulRowTile = 4;   // C rows per register tile
inline constexpr int64_t kMatMulColTile = 32;  // C cols per register tile

/// Rows whose L2 norm is below this pass through the fused cosine kernels
/// unnormalized — RowL2Normalize's default eps, so the fused op matches
/// the eager chain.
inline constexpr float kCosineEps = 1e-12f;

/// The ISA-specialized inner loops of the tensor hot path. One table per
/// compiled tier (scalar / AVX2+FMA / AVX-512F); tensor/matrix.cc calls
/// through the table returned by Kernels().
///
/// Bitwise contract: every implementation performs the exact same
/// per-element operation sequence as the scalar tier — multiply then add
/// (no FMA contraction), inner-dimension accumulation in ascending order —
/// so all tiers produce bit-identical results. The wider tiers only
/// vectorize across *independent* output elements, which never reorders a
/// per-element chain. Enforced by cpu_features_test and the golden traces.
struct KernelTable {
  /// C rows [r0, r1) += A rows [r0, r1) · B, row-major; A is ·×k, B is
  /// k×n, C is ·×n (leading dimensions == logical widths).
  void (*matmul_row_range)(const float* a, const float* b, float* c,
                           int64_t k, int64_t n, int64_t r0, int64_t r1);
  /// dst[i] += scale * src[i] for i in [0, n).
  void (*axpy)(float* dst, const float* src, float scale, int64_t n);
  /// dst[i] *= scale for i in [0, n).
  void (*scale)(float* dst, float scale, int64_t n);
  /// dst[i] *= src[i] for i in [0, n).
  void (*hadamard)(float* dst, const float* src, int64_t n);
  /// drow[j] = max(a_norm + b_norms[j] - 2 * prow[j], 0) for j in [0, n) —
  /// the assembly loop of PairwiseSquaredDistances.
  void (*pairwise_assemble)(float* drow, const float* prow,
                            const float* b_norms, float a_norm, int64_t n);

  // --- Fused-traversal bodies (fused loss ops, DESIGN.md §14) ---
  //
  // Each fused kernel performs the exact per-element float sequence of the
  // eager op chain it replaces (named in its comment), so fused ≡ eager
  // bitwise. Reductions accumulate in double in ascending flat order on one
  // thread — the same serial contract as SumAll/SumSquares — which keeps
  // them trivially tier- and thread-count-invariant; the grad kernels run
  // over independent output elements and may vectorize freely. Any grad
  // output pointer may be null to skip that input (constant operands).

  /// Σ_i double(d)·d with d = a[i] + (-1.0f)*b[i] — SumSquares(Sub(a, b)).
  double (*fused_sub_sumsq)(const float* a, const float* b, int64_t n);
  /// da[i] = (a[i] + (-1.0f)*b[i]) * scale; db[i] = da[i] * (-1.0f) —
  /// the backward of SumSquares(Sub(a, b)) with incoming scale.
  void (*fused_sub_grad)(float* da, float* db, const float* a, const float* b,
                         float scale, int64_t n);
  /// Σ_i double(u·u) with u = x[i] (+ bias when has_bias) — the float
  /// square then double accumulation of Sum(Square(AddScalar?(x, bias))).
  double (*fused_square_sum)(const float* x, float bias, int has_bias,
                             int64_t n);
  /// dx[i] = g * (2.0f * u) — the backward of the chain above.
  void (*fused_square_sum_grad)(float* dx, const float* x, float bias,
                                int has_bias, float g, int64_t n);
  /// Σ_i double(exp(((x[i]*s1) + b1) * s2)) —
  /// Sum(Exp(ScalarMul(AddScalar(ScalarMul(x, s1), b1), s2))). Writes each
  /// exp result to y[i] so the backward never re-evaluates exp.
  double (*fused_exp_affine_sum)(const float* x, float s1, float b1, float s2,
                                 float* y, int64_t n);
  /// dx[i] = ((g * y[i]) * s2) * s1 over the forward's stashed y.
  void (*fused_exp_affine_grad)(float* dx, const float* y, float s1, float s2,
                                float g, int64_t n);
  /// Σ_i double(t[i] * d) with d = a[i] + (-1.0f)*b[i] —
  /// Sum(Mul(t, Sub(a, b))).
  double (*fused_mul_sub_sum)(const float* t, const float* a, const float* b,
                              int64_t n);
  /// dt[i] = g * d; da[i] = g * t[i]; db[i] = (g * t[i]) * (-1.0f).
  void (*fused_mul_sub_grad)(float* dt, float* da, float* db, const float* t,
                             const float* a, const float* b, float g,
                             int64_t n);
  /// One row of RowSum(Mul(RowL2Normalize(a), RowL2Normalize(b))): norms as
  /// float(sqrt(Σ double(v)·v)), rows below kCosineEps pass through, dot as
  /// a double accumulation of the float products. Writes the two row norms
  /// to norms[0] (na) and norms[1] (nb) for the backward pass.
  float (*fused_cosine_row)(const float* a, const float* b, int64_t cols,
                            float* norms);
  /// Backward of one cosine row: reuses the forward's stashed norms and
  /// applies the RowSum → Mul → RowL2Normalize gradient chain.
  void (*fused_cosine_row_grad)(float* da, float* db, const float* a,
                                const float* b, float g, int64_t cols,
                                const float* norms);
  /// One row of RowSum(Mul(a, b)): Σ_c double(a[c]*b[c]).
  float (*fused_rowdot_row)(const float* a, const float* b, int64_t cols);
  /// da[c] = g * b[c]; db[c] = g * a[c].
  void (*fused_rowdot_row_grad)(float* da, float* db, const float* a,
                                const float* b, float g, int64_t cols);
  const char* name;
};

extern const KernelTable kScalarKernels;
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;

/// The table for an explicit level (bench sweeps).
const KernelTable& KernelsFor(core::SimdLevel level);

/// The table for core::ActiveSimdLevel(). Re-resolved on every call (one
/// relaxed atomic load), so SetSimdLevelForTest switches take effect
/// immediately; callers hoist the reference out of their chunk loops.
const KernelTable& Kernels();

}  // namespace darec::tensor::simd

#endif  // DAREC_TENSOR_SIMD_KERNELS_H_
