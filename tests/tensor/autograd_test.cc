#include "tensor/autograd.h"

#include <cstring>
#include <memory>
#include <utility>

#include "gtest/gtest.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace darec::tensor {
namespace {

using darec::testing::ExpectGradientsMatch;

Matrix SmoothInput(int64_t rows, int64_t cols, float offset = 0.0f) {
  // Deterministic values away from ReLU kinks and softmax ties.
  Matrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      m(r, c) = 0.3f + 0.17f * static_cast<float>(r) -
                0.23f * static_cast<float>(c) + offset;
      if (m(r, c) > -0.05f && m(r, c) < 0.05f) m(r, c) = 0.11f;
    }
  }
  return m;
}

TEST(AutogradTest, BackwardRequiresScalarRoot) {
  Variable v = Variable::Parameter(SmoothInput(2, 2));
  EXPECT_DEATH(Backward(v), "scalar");
}

/// Backward(root, G) is the vector-Jacobian product of the graph under a
/// non-scalar root: the parameter gradients are those of the scalar
/// Sum(Mul(root, Constant(G))), whose gradient at root is exactly 1·G, bit
/// for bit — negative zeros included.
TEST(AutogradTest, SeededBackwardMatchesSumOfProductBitwise) {
  const Matrix x0 = SmoothInput(5, 4);
  const Matrix w0 = SmoothInput(4, 4, -0.4f);
  Matrix seed = SmoothInput(5, 4, -0.9f);
  seed(0, 0) = -0.0f;
  seed(4, 3) = 0.0f;
  auto root_of = [](const Variable& x, const Variable& w) {
    Variable h = MatMul(x, w);
    return MeanOf({x, h, Tanh(Mul(h, x))});
  };

  Variable x_seeded = Variable::Parameter(x0);
  Variable w_seeded = Variable::Parameter(w0);
  Backward(root_of(x_seeded, w_seeded), seed);

  Variable x_scalar = Variable::Parameter(x0);
  Variable w_scalar = Variable::Parameter(w0);
  Backward(Sum(Mul(root_of(x_scalar, w_scalar), Variable::Constant(seed))));

  for (const auto& [got, want] :
       {std::pair{&x_seeded, &x_scalar}, std::pair{&w_seeded, &w_scalar}}) {
    ASSERT_TRUE(got->grad().SameShape(want->grad()));
    EXPECT_EQ(std::memcmp(got->grad().data(), want->grad().data(),
                          sizeof(float) * got->grad().size()),
              0);
  }
}

TEST(AutogradTest, SeededBackwardRejectsSeedOfWrongShape) {
  Variable x = Variable::Parameter(SmoothInput(3, 2));
  Variable root = ScalarMul(x, 2.0f);
  EXPECT_DEATH(Backward(root, Matrix(2, 3)), "seed shape");
}

TEST(AutogradTest, SimpleChainGradient) {
  // f(x) = sum(2x) -> df/dx = 2 everywhere.
  Variable x = Variable::Parameter(SmoothInput(2, 3));
  Variable loss = Sum(ScalarMul(x, 2.0f));
  Backward(loss);
  EXPECT_TRUE(AllClose(x.grad(), Matrix::Full(2, 3, 2.0f)));
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Variable x = Variable::Parameter(SmoothInput(1, 2));
  Backward(Sum(x));
  Backward(Sum(x));
  EXPECT_TRUE(AllClose(x.grad(), Matrix::Full(1, 2, 2.0f)));
  x.ClearGrad();
  EXPECT_TRUE(x.grad().empty());
}

TEST(AutogradTest, ReusedVariableAccumulates) {
  // f(x) = sum(x + x) -> df/dx = 2.
  Variable x = Variable::Parameter(SmoothInput(2, 2));
  Backward(Sum(Add(x, x)));
  EXPECT_TRUE(AllClose(x.grad(), Matrix::Full(2, 2, 2.0f)));
}

TEST(AutogradTest, ConstantsReceiveNoGradient) {
  Variable x = Variable::Parameter(SmoothInput(2, 2));
  Variable c = Variable::Constant(SmoothInput(2, 2, 1.0f));
  Backward(Sum(Mul(x, c)));
  EXPECT_FALSE(x.grad().empty());
  EXPECT_TRUE(c.grad().empty());
}

TEST(AutogradTest, MatMulGradients) {
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      Matrix a_init = trans_a ? SmoothInput(3, 2) : SmoothInput(2, 3);
      Matrix b_init = trans_b ? SmoothInput(4, 3, 0.5f) : SmoothInput(3, 4, 0.5f);
      std::vector<Variable> params{Variable::Parameter(a_init),
                                   Variable::Parameter(b_init)};
      ExpectGradientsMatch(
          [trans_a, trans_b](const std::vector<Variable>& p) {
            return Sum(Square(MatMul(p[0], p[1], trans_a, trans_b)));
          },
          params);
    }
  }
}

TEST(AutogradTest, SpMMGradient) {
  auto s = std::make_shared<CsrMatrix>(
      CsrMatrix::FromTriplets(3, 2, {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 0, -1.5f}}));
  std::vector<Variable> params{Variable::Parameter(SmoothInput(2, 3))};
  ExpectGradientsMatch(
      [s](const std::vector<Variable>& p) { return Sum(Square(SpMM(s, p[0]))); },
      params);
}

TEST(AutogradTest, ElementwiseBinaryGradients) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(2, 3)),
                               Variable::Parameter(SmoothInput(2, 3, 0.7f))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Add(p[0], p[1]))); },
      params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Sub(p[0], p[1]))); },
      params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Mul(p[0], p[1]))); },
      params);
}

TEST(AutogradTest, AddRowBroadcastGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 2)),
                               Variable::Parameter(SmoothInput(1, 2, 0.4f))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return Sum(Square(AddRowBroadcast(p[0], p[1])));
      },
      params);
}

TEST(AutogradTest, ScalarOpsGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(2, 2))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return Sum(Square(AddScalar(ScalarMul(p[0], 1.7f), -0.3f)));
      },
      params);
}

TEST(AutogradTest, UnaryActivationGradients) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 3))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Relu(p[0]))); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(LeakyRelu(p[0]))); },
      params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Sigmoid(p[0]))); },
      params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Tanh(p[0]))); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Exp(p[0]))); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(Softplus(p[0]))); },
      params);
}

TEST(AutogradTest, LogAndSquareGradients) {
  // Strictly positive inputs for log.
  Matrix pos = SmoothInput(2, 2, 2.0f);
  std::vector<Variable> params{Variable::Parameter(pos)};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Log(p[0])); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(p[0])); }, params);
}

TEST(AutogradTest, RowL2NormalizeGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 4, 0.6f))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        // Weighted sum so the gradient is not identically zero on the sphere.
        Variable weights = Variable::Constant(SmoothInput(3, 4, 1.5f));
        return Sum(Mul(RowL2Normalize(p[0]), weights));
      },
      params);
}

TEST(AutogradTest, ConcatAndSliceGradients) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(2, 3)),
                               Variable::Parameter(SmoothInput(3, 3, 0.9f))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        Variable cat = ConcatRows(p[0], p[1]);
        return Sum(Square(SliceRows(cat, 1, 3)));
      },
      params);
}

TEST(AutogradTest, GatherRowsGradientWithDuplicates) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(4, 2))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return Sum(Square(GatherRows(p[0], {0, 2, 2, 3})));
      },
      params);
}

TEST(AutogradTest, ReductionGradients) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 2))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Mean(Square(p[0])); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return SumSquares(p[0]); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(Square(RowSum(p[0]))); },
      params);
}

TEST(AutogradTest, SoftmaxGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(2, 4))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        Variable weights = Variable::Constant(SmoothInput(2, 4, 2.0f));
        return Sum(Mul(SoftmaxRows(p[0]), weights));
      },
      params);
}

TEST(AutogradTest, RowLogSumExpGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 3))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return Sum(RowLogSumExp(p[0])); }, params);
}

TEST(AutogradTest, TakeDiagonalGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 3))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return Sum(Square(TakeDiagonal(MatMul(p[0], p[0], false, true))));
      },
      params);
}

TEST(AutogradTest, CompositeLossGradients) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(3, 4)),
                               Variable::Parameter(SmoothInput(3, 4, 0.8f))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return BprLoss(RowDot(p[0], p[1]), RowDot(p[0], ScalarMul(p[1], 0.5f)));
      },
      params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return InfoNceLoss(p[0], p[1], 0.5f); },
      params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return MseLoss(p[0], p[1]); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return L2Penalty({p[0], p[1]}); }, params);
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return Sum(Square(CosineRowSimilarity(p[0], p[1])));
      },
      params);
}

TEST(AutogradTest, MeanOfGradient) {
  std::vector<Variable> params{Variable::Parameter(SmoothInput(2, 2)),
                               Variable::Parameter(SmoothInput(2, 2, 0.5f)),
                               Variable::Parameter(SmoothInput(2, 2, 1.0f))};
  ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return Sum(Square(MeanOf({p[0], p[1], p[2]})));
      },
      params);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Variable x = Variable::Parameter(SmoothInput(2, 2));
  Variable detached = Detach(x);
  EXPECT_TRUE(AllClose(detached.value(), x.value()));
  Backward(Sum(Square(detached)));
  EXPECT_TRUE(x.grad().empty());
  EXPECT_FALSE(detached.requires_grad());

  // Mixed path: gradient flows through the live branch only.
  Backward(Sum(Mul(x, Detach(x))));
  ASSERT_FALSE(x.grad().empty());
  EXPECT_TRUE(AllClose(x.grad(), x.value()));  // d/dx (x * const_x) = const_x.
}

TEST(AutogradTest, DropoutZeroProbIsIdentity) {
  core::Rng rng(3);
  Variable x = Variable::Parameter(SmoothInput(2, 2));
  Variable y = Dropout(x, 0.0f, rng);
  EXPECT_TRUE(AllClose(y.value(), x.value()));
}

TEST(AutogradTest, DropoutMaskConsistentInBackward) {
  core::Rng rng(3);
  Variable x = Variable::Parameter(Matrix::Full(10, 10, 1.0f));
  Variable y = Dropout(x, 0.5f, rng);
  Backward(Sum(y));
  // Gradient equals the mask: each entry 0 or 2 (= 1/keep).
  int zeros = 0, twos = 0;
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = 0; c < 10; ++c) {
      float g = x.grad()(r, c);
      if (g == 0.0f) {
        ++zeros;
      } else {
        EXPECT_FLOAT_EQ(g, 2.0f);
        ++twos;
      }
      EXPECT_FLOAT_EQ(y.value()(r, c), g);
    }
  }
  EXPECT_GT(zeros, 10);
  EXPECT_GT(twos, 10);
}

TEST(AutogradTest, InfoNceIsLowWhenAligned) {
  // Identical, well-separated rows: diagonal logits dominate -> small loss.
  Matrix base(4, 8);
  for (int64_t r = 0; r < 4; ++r) base(r, 2 * r) = 5.0f;
  Variable a = Variable::Parameter(base);
  Variable b = Variable::Parameter(base);
  float aligned = InfoNceLoss(a, b, 0.1f).scalar();

  Matrix other(4, 8);
  for (int64_t r = 0; r < 4; ++r) other(r, 7 - 2 * r) = 5.0f;  // Mismatched rows.
  Variable c = Variable::Parameter(other);
  float misaligned = InfoNceLoss(a, c, 0.1f).scalar();
  EXPECT_LT(aligned, misaligned);
}

TEST(AutogradTest, BprLossOrdersScores) {
  Variable good_pos = Variable::Constant(Matrix::Full(3, 1, 4.0f));
  Variable bad_pos = Variable::Constant(Matrix::Full(3, 1, -4.0f));
  Variable neg = Variable::Constant(Matrix::Full(3, 1, 0.0f));
  EXPECT_LT(BprLoss(good_pos, neg).scalar(), BprLoss(bad_pos, neg).scalar());
}

}  // namespace
}  // namespace darec::tensor
