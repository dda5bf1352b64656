// AVX2 tier. Compiled with "-mavx2;-mfma;-ffp-contract=off" (see
// src/tensor/CMakeLists.txt): the vectorizer widens the independent-output
// loops to 8 lanes, while -ffp-contract=off keeps the FMA units from fusing
// the multiply-add chains — bitwise identical to the scalar tier.

#include "tensor/simd/kernels.h"

#define DAREC_SIMD_NAMESPACE avx2_impl
#include "tensor/simd/kernels_impl.inc"
#undef DAREC_SIMD_NAMESPACE

namespace darec::tensor::simd {

const KernelTable kAvx2Kernels = {
    &avx2_impl::MatMulRowRange, &avx2_impl::Axpy,
    &avx2_impl::Scale,          &avx2_impl::Hadamard,
    &avx2_impl::PairwiseAssemble,
    &avx2_impl::FusedSubSumSq,  &avx2_impl::FusedSubGrad,
    &avx2_impl::FusedSquareSum, &avx2_impl::FusedSquareSumGrad,
    &avx2_impl::FusedExpAffineSum, &avx2_impl::FusedExpAffineGrad,
    &avx2_impl::FusedMulSubSum, &avx2_impl::FusedMulSubGrad,
    &avx2_impl::FusedCosineRow, &avx2_impl::FusedCosineRowGrad,
    &avx2_impl::FusedRowDotRow, &avx2_impl::FusedRowDotRowGrad,
    "avx2",
};

}  // namespace darec::tensor::simd
