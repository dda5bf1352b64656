// Fused loss ops vs their eager compositions (DESIGN.md §14): every case in
// fused_op_cases.h must match bitwise — the loss value and every input
// gradient — on each compiled SIMD tier, at 1 and 8 threads, both without a
// graph context and inside one (the pooled arena, as training runs it).
#include <cstdint>
#include <vector>

#include "core/cpu_features.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/autograd.h"
#include "tensor/fused_op_cases.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace darec::tensor {
namespace {

using testing::FusedOpCase;
using testing::FusedOpCases;

/// Deterministic inputs with mixed signs/magnitudes; `zero_row` forces one
/// all-zero row to exercise the RowL2Normalize eps passthrough.
Matrix TestInput(int64_t rows, int64_t cols, float offset, bool zero_row) {
  Matrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const float base = 0.31f + 0.47f * static_cast<float>(r) -
                         0.29f * static_cast<float>(c) + offset;
      m(r, c) = base * ((r + c) % 3 == 0 ? -17.0f : 0.013f);
    }
  }
  if (zero_row && rows > 1) {
    for (int64_t c = 0; c < cols; ++c) m(1, c) = 0.0f;
  }
  return m;
}

using StepResult = std::vector<std::vector<uint32_t>>;

/// One forward + backward of `c` on fresh parameters, with or without a
/// graph context (see testing::StepBits).
StepResult RunCase(const FusedOpCase& c, bool fused, int64_t rows,
                   int64_t cols, GraphContext* ctx) {
  std::vector<Variable> inputs;
  for (int i = 0; i < c.num_inputs; ++i) {
    inputs.push_back(Variable::Parameter(TestInput(
        rows, cols, 0.1f * static_cast<float>(i + 1), /*zero_row=*/i == 0)));
  }
  return testing::StepBits(fused ? c.fused : c.eager, inputs, ctx);
}

std::vector<core::SimdLevel> AvailableLevels() {
  std::vector<core::SimdLevel> levels{core::SimdLevel::kScalar};
  if (core::HardwareSimdLevel() >= core::SimdLevel::kAvx2)
    levels.push_back(core::SimdLevel::kAvx2);
  if (core::HardwareSimdLevel() >= core::SimdLevel::kAvx512)
    levels.push_back(core::SimdLevel::kAvx512);
  return levels;
}

class FusedOpsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    core::SetSimdLevelForTest(core::HardwareSimdLevel());
    core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
  }
};

TEST_F(FusedOpsTest, MatchEagerBitwiseAcrossTiersThreadsAndContexts) {
  // Shapes: 1x1, primes, tile-exact, one-past-tile, tall-skinny.
  const int64_t shapes[][2] = {{1, 1}, {3, 5}, {7, 13}, {16, 16},
                               {17, 33}, {31, 8}, {64, 3}};
  for (const FusedOpCase& c : FusedOpCases()) {
    for (const auto& shape : shapes) {
      const int64_t rows = shape[0], cols = shape[1];
      // Reference: the eager composition, scalar tier, one thread, no
      // graph context.
      core::SetSimdLevelForTest(core::SimdLevel::kScalar);
      core::ThreadPool::SetGlobalThreads(1);
      const StepResult want = RunCase(c, /*fused=*/false, rows, cols, nullptr);
      for (core::SimdLevel level : AvailableLevels()) {
        core::SetSimdLevelForTest(level);
        for (int threads : {1, 8}) {
          core::ThreadPool::SetGlobalThreads(threads);
          for (bool fused : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << c.name << " " << rows << "x" << cols << " "
                         << core::SimdLevelName(level) << " threads="
                         << threads << " fused=" << fused);
            ASSERT_TRUE(RunCase(c, fused, rows, cols, nullptr) == want)
                << "without a graph context";
            // Two steps through one context: the second reuses the first
            // step's arena slots and pooled scratch.
            GraphContext ctx;
            for (int step = 0; step < 2; ++step) {
              ASSERT_TRUE(RunCase(c, fused, rows, cols, &ctx) == want)
                  << "inside a graph context, step " << step;
            }
          }
        }
      }
    }
  }
}

TEST(FusedOpsDeathTest, InputChecksHold) {
  // The mean's 1/size scale needs a non-empty input.
  const Variable empty = Variable::Constant(Matrix(0, 3));
  EXPECT_DEATH(FusedSquareMean(empty, /*has_bias=*/false, 0.0f), "CHECK failed");
  // Elementwise operands must share one shape.
  const Variable a = Variable::Constant(Matrix::Full(2, 3, 1.0f));
  const Variable b = Variable::Constant(Matrix::Full(3, 2, 1.0f));
  EXPECT_DEATH(RowDot(a, b), "SameShape");
  EXPECT_DEATH(CosineRowSimilarity(a, b), "SameShape");
  EXPECT_DEATH(FusedSubSumSquares(a, b), "SameShape");
  EXPECT_DEATH(FusedMulSubSum(a, a, b), "SameShape");
}

}  // namespace
}  // namespace darec::tensor
