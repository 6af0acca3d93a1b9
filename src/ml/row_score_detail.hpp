// The row-score kernel shared by the logistic fit (ml/logistic.cpp) and
// LinearModel::eval_pm_batch (DESIGN.md §11, "Logistic fit kernel").
//
// A score is w . row summed from 0.0 in ascending j — the order of
// LinearModel::score, so every caller stays bit-identical to the scalar
// path. Four rows are scored together, each in its own accumulator: the
// per-row sum order is unchanged, and the four independent add chains hide
// the floating-point add latency a single dot product waits on.
#pragma once

#include <cstddef>

namespace pitfalls::ml::detail {

/// Rows scored per call of score_block.
inline constexpr std::size_t kRowBlock = 4;

/// out[k] = sum_j w[j] * rows[k][j] for k < kRowBlock, each row summed
/// from 0.0 in ascending j. A caller with fewer rows repeats a row pointer
/// and ignores the extra outputs: the lanes are independent.
inline void score_block(const double* const rows[kRowBlock], const double* w,
                        std::size_t dim, double out[kRowBlock]) {
  const double* r0 = rows[0];
  const double* r1 = rows[1];
  const double* r2 = rows[2];
  const double* r3 = rows[3];
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double wj = w[j];
    s0 += wj * r0[j];
    s1 += wj * r1[j];
    s2 += wj * r2[j];
    s3 += wj * r3[j];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

}  // namespace pitfalls::ml::detail
