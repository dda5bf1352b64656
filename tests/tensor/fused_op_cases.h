#ifndef DAREC_TESTS_TENSOR_FUSED_OP_CASES_H_
#define DAREC_TESTS_TENSOR_FUSED_OP_CASES_H_

// The fused loss ops of tensor/ops.h, each beside the eager composition it
// must equal bit for bit, in the loss value and in every input gradient
// (DESIGN.md §14). Each case reduces to a scalar loss the way its call site
// does. fused_ops_test sweeps the cases over shapes, SIMD tiers, thread
// counts and graph contexts; `micro_losses --fusion_json` times both sides.

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace darec::testing {

struct FusedOpCase {
  using Build =
      std::function<tensor::Variable(const std::vector<tensor::Variable>&)>;
  const char* name;
  int num_inputs;  // Parameters, all of one rows x cols shape.
  Build fused;
  Build eager;
};

inline std::vector<FusedOpCase> FusedOpCases() {
  using namespace tensor;
  using In = std::vector<Variable>;
  return {
      // One op each.
      {"row_dot", 2,
       [](const In& in) { return Mean(RowDot(in[0], in[1])); },
       [](const In& in) { return Mean(RowSum(Mul(in[0], in[1]))); }},
      {"cosine_rows", 2,
       [](const In& in) {
         return FusedSquareMean(CosineRowSimilarity(in[0], in[1]),
                                /*has_bias=*/false, 0.0f);
       },
       [](const In& in) {
         return Mean(Square(
             RowSum(Mul(RowL2Normalize(in[0]), RowL2Normalize(in[1])))));
       }},
      {"square_mean", 1,
       [](const In& in) {
         return FusedSquareMean(in[0], /*has_bias=*/false, 0.0f);
       },
       [](const In& in) { return Mean(Square(in[0])); }},
      {"square_mean_bias", 1,
       [](const In& in) {
         return FusedSquareMean(in[0], /*has_bias=*/true, -1.0f);
       },
       [](const In& in) { return Mean(Square(AddScalar(in[0], -1.0f))); }},
      {"sub_sum_squares", 2,
       [](const In& in) {
         return ScalarMul(FusedSubSumSquares(in[0], in[1]), 0.125f);
       },
       [](const In& in) {
         return ScalarMul(SumSquares(Sub(in[0], in[1])), 0.125f);
       }},
      {"mse", 2, [](const In& in) { return MseLoss(in[0], in[1]); },
       [](const In& in) {
         return ScalarMul(SumSquares(Sub(in[0], in[1])),
                          1.0f / static_cast<float>(in[0].value().size()));
       }},
      {"exp_affine_sum", 1,
       [](const In& in) {
         return Log(
             ScalarMul(FusedExpAffineSum(in[0], -2.0f, 2.0f, -2.0f), 0.25f));
       },
       [](const In& in) {
         return Log(ScalarMul(
             Sum(Exp(ScalarMul(AddScalar(ScalarMul(in[0], -2.0f), 2.0f),
                               -2.0f))),
             0.25f));
       }},
      // Distinct affine constants, so a swapped s1/s2/b1 cannot hide.
      {"exp_affine_sum_mixed", 1,
       [](const In& in) {
         return Sum(FusedExpAffineSum(in[0], 0.7f, -0.5f, -0.3f));
       },
       [](const In& in) {
         return Sum(Exp(ScalarMul(AddScalar(ScalarMul(in[0], 0.7f), -0.5f),
                                  -0.3f)));
       }},
      {"mul_sub_sum", 3,
       [](const In& in) {
         return ScalarMul(FusedMulSubSum(in[0], in[1], in[2]), 0.5f);
       },
       [](const In& in) {
         return ScalarMul(Sum(Mul(in[0], Sub(in[1], in[2]))), 0.5f);
       }},

      // Inputs that also feed other ops: gradients from every consumer must
      // land in the same order.
      // BPR: the user rows feed both row dots.
      {"bpr_shared_user", 3,
       [](const In& in) {
         return BprLoss(RowDot(in[0], in[1]), RowDot(in[0], in[2]));
       },
       [](const In& in) {
         return BprLoss(RowSum(Mul(in[0], in[1])), RowSum(Mul(in[0], in[2])));
       }},
      // The softmax global term: the logits feed RowLogSumExp (created
      // before the fused op) and the fused sum; the targets are detached.
      {"softmax_shared_logits", 2,
       [](const In& in) {
         Variable lse = MatMul(RowLogSumExp(in[1]),
                               Variable::Constant(
                                   Matrix::Full(1, in[1].cols(), 1.0f)));
         return ScalarMul(FusedMulSubSum(Detach(in[0]), lse, in[1]), 0.5f);
       },
       [](const In& in) {
         Variable lse = MatMul(RowLogSumExp(in[1]),
                               Variable::Constant(
                                   Matrix::Full(1, in[1].cols(), 1.0f)));
         return ScalarMul(Sum(Mul(Detach(in[0]), Sub(lse, in[1]))), 0.5f);
       }},
      // Both inputs feed an op created after the fused one.
      {"cosine_then_reuse", 2,
       [](const In& in) {
         return Add(FusedSquareMean(CosineRowSimilarity(in[0], in[1]),
                                    /*has_bias=*/false, 0.0f),
                    SumSquares(Sub(in[1], in[0])));
       },
       [](const In& in) {
         return Add(Mean(Square(RowSum(
                        Mul(RowL2Normalize(in[0]), RowL2Normalize(in[1]))))),
                    SumSquares(Sub(in[1], in[0])));
       }},
  };
}

/// The loss-value bits, then each input's gradient bits, of one forward and
/// backward pass of `build` (input gradients are cleared first). With a
/// `ctx` the pass runs inside it and ends with a Reset, as a training step
/// does; with null it runs without a graph context.
inline std::vector<std::vector<uint32_t>> StepBits(
    const FusedOpCase::Build& build, std::vector<tensor::Variable>& inputs,
    tensor::GraphContext* ctx) {
  auto bits_of = [](const tensor::Matrix& m) {
    std::vector<uint32_t> bits(static_cast<size_t>(m.size()));
    // A detached input's gradient stays empty, with a null data pointer.
    if (!bits.empty()) {
      std::memcpy(bits.data(), m.data(), bits.size() * sizeof(uint32_t));
    }
    return bits;
  };
  std::vector<std::vector<uint32_t>> bits;
  for (tensor::Variable& in : inputs) in.ClearGrad();
  {
    tensor::GraphContext::Scope scope(ctx);
    tensor::Variable loss = build(inputs);
    bits.push_back(bits_of(loss.value()));
    tensor::Backward(loss);
  }
  if (ctx != nullptr) ctx->Reset();
  for (const tensor::Variable& in : inputs) bits.push_back(bits_of(in.grad()));
  return bits;
}

}  // namespace darec::testing

#endif  // DAREC_TESTS_TENSOR_FUSED_OP_CASES_H_
