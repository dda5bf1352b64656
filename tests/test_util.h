#ifndef DAREC_TESTS_TEST_UTIL_H_
#define DAREC_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstddef>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/autograd.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace darec::testing {

/// Checks the autograd gradient of `loss_fn` with central finite differences.
///
/// `loss_fn` must rebuild the graph from the given parameters and return the
/// scalar loss Variable. Each parameter entry is perturbed by ±h and the
/// numeric slope compared to the analytic gradient.
inline void ExpectGradientsMatch(
    const std::function<tensor::Variable(const std::vector<tensor::Variable>&)>&
        loss_fn,
    std::vector<tensor::Variable> params, float h = 1e-3f, float tol = 2e-2f) {
  // Analytic gradients.
  for (auto& p : params) p.ClearGrad();
  tensor::Variable loss = loss_fn(params);
  tensor::Backward(loss);

  for (size_t pi = 0; pi < params.size(); ++pi) {
    tensor::Variable& p = params[pi];
    ASSERT_FALSE(p.grad().empty()) << "no gradient reached parameter " << pi;
    for (int64_t r = 0; r < p.rows(); ++r) {
      for (int64_t c = 0; c < p.cols(); ++c) {
        const float original = p.value()(r, c);
        p.mutable_value()(r, c) = original + h;
        const float plus = loss_fn(params).scalar();
        p.mutable_value()(r, c) = original - h;
        const float minus = loss_fn(params).scalar();
        p.mutable_value()(r, c) = original;
        const float numeric = (plus - minus) / (2.0f * h);
        const float analytic = p.grad()(r, c);
        const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(analytic)});
        EXPECT_NEAR(analytic, numeric, tol * scale)
            << "param " << pi << " entry (" << r << "," << c << ")";
      }
    }
  }
}

/// XORs `mask` into byte `offset` of the file at `path`, in place; calling
/// it twice restores the byte. Corruption sweeps flip this way rather than
/// rewrite the file: a rewrite truncates it first, and on a disk mounted
/// with online discard every truncation of written blocks takes tens of
/// milliseconds.
inline void FlipByteInPlace(const std::string& path, size_t offset,
                            unsigned char mask) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(offset));
  ASSERT_TRUE(file.get(byte)) << path << ": no byte " << offset;
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ static_cast<char>(mask)));
  ASSERT_TRUE(file.flush()) << path;
}

}  // namespace darec::testing

#endif  // DAREC_TESTS_TEST_UTIL_H_
