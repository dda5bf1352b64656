// Baseline tier: plain x86-64 (SSE2). Compiled with
// "-march=x86-64;-ffp-contract=off" (see src/tensor/CMakeLists.txt) — the
// reference bit pattern every wider tier must reproduce.

#include "tensor/simd/kernels.h"

#define DAREC_SIMD_NAMESPACE scalar_impl
#include "tensor/simd/kernels_impl.inc"
#undef DAREC_SIMD_NAMESPACE

namespace darec::tensor::simd {

const KernelTable kScalarKernels = {
    &scalar_impl::MatMulRowRange, &scalar_impl::Axpy,
    &scalar_impl::Scale,          &scalar_impl::Hadamard,
    &scalar_impl::PairwiseAssemble,
    &scalar_impl::FusedSubSumSq,  &scalar_impl::FusedSubGrad,
    &scalar_impl::FusedSquareSum, &scalar_impl::FusedSquareSumGrad,
    &scalar_impl::FusedExpAffineSum, &scalar_impl::FusedExpAffineGrad,
    &scalar_impl::FusedMulSubSum, &scalar_impl::FusedMulSubGrad,
    &scalar_impl::FusedCosineRow, &scalar_impl::FusedCosineRowGrad,
    &scalar_impl::FusedRowDotRow, &scalar_impl::FusedRowDotRowGrad,
    "scalar",
};

}  // namespace darec::tensor::simd
