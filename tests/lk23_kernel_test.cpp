// Tests for the Livermore Kernel 23 numerics: stability, block/sequential
// agreement, halo handling.

#include <gtest/gtest.h>

#include <cmath>

#include "lk23/kernel.h"
#include "support/assert.h"

namespace orwl::lk23 {
namespace {

TEST(Coefficients, StableRange) {
  for (long j = 0; j < 50; ++j) {
    for (long k = 0; k < 50; ++k) {
      const double sum = coef_zr(j, k) + coef_zb(j, k) + coef_zu(j, k) +
                         coef_zv(j, k);
      EXPECT_GT(sum, 0.0);
      EXPECT_LT(sum, 1.0) << "kernel would be unstable";
      EXPECT_GE(coef_zz(j, k), 0.0);
      EXPECT_GE(initial_za(j, k), 0.0);
      EXPECT_LT(initial_za(j, k), 1.0);
    }
  }
}

TEST(Sequential, BorderStaysFixed) {
  const long n = 16;
  const auto za = sequential_kernel(n, 5);
  for (long k = 0; k < n; ++k) {
    EXPECT_EQ(za[static_cast<std::size_t>(k)], initial_za(0, k));
    EXPECT_EQ(za[static_cast<std::size_t>((n - 1) * n + k)],
              initial_za(n - 1, k));
    EXPECT_EQ(za[static_cast<std::size_t>(k * n)], initial_za(k, 0));
    EXPECT_EQ(za[static_cast<std::size_t>(k * n + n - 1)],
              initial_za(k, n - 1));
  }
}

TEST(Sequential, ValuesStayBounded) {
  const auto za = sequential_kernel(32, 100);
  for (double v : za) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 2.0);
  }
}

TEST(Sequential, ZeroIterationsIsInitialField) {
  const long n = 8;
  const auto za = sequential_kernel(n, 0);
  for (long j = 0; j < n; ++j)
    for (long k = 0; k < n; ++k)
      EXPECT_EQ(za[static_cast<std::size_t>(j * n + k)], initial_za(j, k));
}

TEST(Blocked, SingleBlockEqualsSequential) {
  // With one block there is no frontier: blocked == plain sequential GS.
  Spec spec;
  spec.n = 64;
  spec.iterations = 7;
  spec.bx = 1;
  spec.by = 1;
  const auto blocked = blocked_reference(spec);
  const auto seq = sequential_kernel(spec.n, spec.iterations);
  EXPECT_EQ(max_abs_diff(blocked, seq), 0.0);
}

TEST(Blocked, DifferentGridsConvergeTogether) {
  // Different block grids are different-but-consistent schemes; after many
  // iterations they converge to the same fixed point.
  Spec a;
  a.n = 32;
  a.iterations = 400;
  a.bx = 1;
  a.by = 1;
  Spec b = a;
  b.bx = 4;
  b.by = 2;
  const double diff =
      max_abs_diff(blocked_reference(a), blocked_reference(b));
  EXPECT_LT(diff, 1e-10) << "block-Jacobi coupling must not change the "
                            "fixed point";
}

TEST(Blocked, DeterministicAcrossRuns) {
  Spec spec;
  spec.n = 32;
  spec.iterations = 10;
  spec.bx = 4;
  spec.by = 4;
  EXPECT_EQ(max_abs_diff(blocked_reference(spec), blocked_reference(spec)),
            0.0);
}

TEST(Blocked, RejectsNonDividingGrid) {
  Spec spec;
  spec.n = 10;
  spec.bx = 3;
  EXPECT_THROW(blocked_reference(spec), ContractError);
}

TEST(SweepBlock, RespectsHaloValues) {
  // A 2x2 interior block: feed a synthetic halo and verify one update by
  // hand at (row0, col0) = (1, 1) in a 4x4 global matrix.
  const long n = 4;
  std::vector<double> za = {0.5, 0.5};  // placeholder, replaced below
  za.assign(4, 0.0);
  za[0] = initial_za(1, 1);
  za[1] = initial_za(1, 2);
  za[2] = initial_za(2, 1);
  za[3] = initial_za(2, 2);
  Halo halo;
  halo[N] = {initial_za(0, 1), initial_za(0, 2)};
  halo[S] = {initial_za(3, 1), initial_za(3, 2)};
  halo[W] = {initial_za(1, 0), initial_za(2, 0)};
  halo[E] = {initial_za(1, 3), initial_za(2, 3)};
  BlockView blk{za.data(), 2, 2, 2, 1, 1, n};
  sweep_block(blk, halo);

  // Expected: identical to one sequential sweep on the full 4x4 matrix.
  const auto full = sequential_kernel(n, 1);
  EXPECT_EQ(za[0], full[static_cast<std::size_t>(1 * n + 1)]);
  EXPECT_EQ(za[1], full[static_cast<std::size_t>(1 * n + 2)]);
  EXPECT_EQ(za[2], full[static_cast<std::size_t>(2 * n + 1)]);
  EXPECT_EQ(za[3], full[static_cast<std::size_t>(2 * n + 2)]);
}

TEST(SweepBlock, UndersizedHaloRejected) {
  std::vector<double> za(4, 0.0);
  BlockView blk{za.data(), 2, 2, 2, 1, 1, 4};
  Halo halo;  // all empty
  EXPECT_THROW(sweep_block(blk, halo), ContractError);
}

TEST(MaxAbsDiff, SizeMismatchRejected) {
  std::vector<double> a(3), b(4);
  EXPECT_THROW(max_abs_diff(a, b), ContractError);
}

TEST(InitBlock, MatchesFormula) {
  std::vector<double> za(6, -1.0);
  BlockView blk{za.data(), 3, 2, 3, 4, 5, 100};
  init_block(blk);
  for (long r = 0; r < 2; ++r)
    for (long c = 0; c < 3; ++c)
      EXPECT_EQ(za[static_cast<std::size_t>(r * 3 + c)],
                initial_za(4 + r, 5 + c));
}

}  // namespace
}  // namespace orwl::lk23
