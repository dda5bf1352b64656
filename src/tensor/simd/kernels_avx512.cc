// AVX-512F tier. Compiled with
// "-mavx512f;-mprefer-vector-width=512;-ffp-contract=off" (see
// src/tensor/CMakeLists.txt): 16-lane vectors across the independent-output
// loops, contraction off — bitwise identical to the scalar tier.

#include "tensor/simd/kernels.h"

#define DAREC_SIMD_NAMESPACE avx512_impl
#include "tensor/simd/kernels_impl.inc"
#undef DAREC_SIMD_NAMESPACE

namespace darec::tensor::simd {

const KernelTable kAvx512Kernels = {
    &avx512_impl::MatMulRowRange, &avx512_impl::Axpy,
    &avx512_impl::Scale,          &avx512_impl::Hadamard,
    &avx512_impl::PairwiseAssemble,
    &avx512_impl::FusedSubSumSq,  &avx512_impl::FusedSubGrad,
    &avx512_impl::FusedSquareSum, &avx512_impl::FusedSquareSumGrad,
    &avx512_impl::FusedExpAffineSum, &avx512_impl::FusedExpAffineGrad,
    &avx512_impl::FusedMulSubSum, &avx512_impl::FusedMulSubGrad,
    &avx512_impl::FusedCosineRow, &avx512_impl::FusedCosineRowGrad,
    &avx512_impl::FusedRowDotRow, &avx512_impl::FusedRowDotRowGrad,
    "avx512",
};

}  // namespace darec::tensor::simd
