// Unit tests for the synthetic communication-pattern generators.

#include <gtest/gtest.h>

#include <utility>

#include "comm/patterns.h"
#include "support/assert.h"

namespace orwl::comm {
namespace {

TEST(BlockGrid, Factorizes) {
  EXPECT_EQ(block_grid(192), (std::pair<int, int>{16, 12}));
  EXPECT_EQ(block_grid(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(block_grid(7), (std::pair<int, int>{7, 1}));
  EXPECT_EQ(block_grid(1), (std::pair<int, int>{1, 1}));
}

TEST(BlockGrid, NearSquareForEveryTaskCount) {
  // The factorization spec_for_tasks, the block-grid workloads and the
  // analytic Figure-1 model all share: by is the largest divisor of
  // `tasks` not above sqrt(tasks), and bx the cofactor.
  for (int tasks = 1; tasks <= 256; ++tasks) {
    const auto [bx, by] = block_grid(tasks);
    EXPECT_EQ(bx * by, tasks) << tasks;
    EXPECT_GE(bx, by) << tasks;
    int largest = 1;
    for (int d = 1; d * d <= tasks; ++d)
      if (tasks % d == 0) largest = d;
    EXPECT_EQ(by, largest) << tasks;
  }
}

TEST(BlockGrid, RejectsNoTasks) {
  EXPECT_THROW(block_grid(0), ContractError);
}

TEST(Stencil, SingleBlockHasNoEdges) {
  StencilSpec s;
  s.blocks_x = 1;
  s.blocks_y = 1;
  const CommMatrix m = stencil_matrix(s);
  EXPECT_EQ(m.order(), 1);
  EXPECT_EQ(m.total_volume(), 0.0);
}

TEST(Stencil, TwoByTwoNonPeriodic) {
  StencilSpec s;
  s.blocks_x = 2;
  s.blocks_y = 2;
  s.block_rows = 4;
  s.block_cols = 8;
  s.elem_bytes = 8;
  s.corners = true;
  const CommMatrix m = stencil_matrix(s);
  EXPECT_EQ(m.order(), 4);
  // Horizontal neighbours exchange block_rows elems: 4*8 = 32 bytes.
  EXPECT_EQ(m.at(0, 1), 32.0);
  EXPECT_EQ(m.at(2, 3), 32.0);
  // Vertical neighbours exchange block_cols elems: 8*8 = 64 bytes.
  EXPECT_EQ(m.at(0, 2), 64.0);
  EXPECT_EQ(m.at(1, 3), 64.0);
  // Diagonals exchange one element = 8 bytes.
  EXPECT_EQ(m.at(0, 3), 8.0);
  EXPECT_EQ(m.at(1, 2), 8.0);
}

TEST(Stencil, CornersCanBeDisabled) {
  StencilSpec s;
  s.blocks_x = 2;
  s.blocks_y = 2;
  s.corners = false;
  const CommMatrix m = stencil_matrix(s);
  EXPECT_EQ(m.at(0, 3), 0.0);
  EXPECT_EQ(m.at(1, 2), 0.0);
  EXPECT_GT(m.at(0, 1), 0.0);
}

TEST(Stencil, PeriodicWrapsAround) {
  StencilSpec s;
  s.blocks_x = 4;
  s.blocks_y = 1;
  s.block_rows = 2;
  s.elem_bytes = 8;
  s.periodic = true;
  s.corners = false;
  const CommMatrix m = stencil_matrix(s);
  EXPECT_GT(m.at(0, 3), 0.0) << "periodic edge 3 -> 0 missing";
}

TEST(Stencil, NonPeriodicBorderHasNoWrap) {
  StencilSpec s;
  s.blocks_x = 4;
  s.blocks_y = 1;
  s.periodic = false;
  s.corners = false;
  const CommMatrix m = stencil_matrix(s);
  EXPECT_EQ(m.at(0, 3), 0.0);
}

TEST(Stencil, InteriorBlockDegreeIs8) {
  StencilSpec s;
  s.blocks_x = 3;
  s.blocks_y = 3;
  const CommMatrix m = stencil_matrix(s);
  int degree = 0;
  for (int j = 0; j < 9; ++j)
    if (j != 4 && m.at(4, j) > 0.0) ++degree;
  EXPECT_EQ(degree, 8) << "centre block must touch all 8 neighbours";
}

TEST(Stencil, RejectsBadSpec) {
  StencilSpec s;
  s.blocks_x = 0;
  EXPECT_THROW(stencil_matrix(s), ContractError);
}

TEST(Ring, NonPeriodicChain) {
  const CommMatrix m = ring_matrix(4, 10.0, /*periodic=*/false);
  EXPECT_EQ(m.at(0, 1), 10.0);
  EXPECT_EQ(m.at(1, 2), 10.0);
  EXPECT_EQ(m.at(2, 3), 10.0);
  EXPECT_EQ(m.at(0, 3), 0.0);
}

TEST(Ring, PeriodicClosesLoop) {
  const CommMatrix m = ring_matrix(4, 10.0, /*periodic=*/true);
  EXPECT_EQ(m.at(0, 3), 10.0);
}

TEST(Ring, TwoThreadsNoDoubleEdge) {
  const CommMatrix m = ring_matrix(2, 5.0, /*periodic=*/true);
  EXPECT_EQ(m.at(0, 1), 5.0);
}

TEST(Uniform, AllPairsEqual) {
  const CommMatrix m = uniform_matrix(4, 3.0);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(m.at(i, j), i == j ? 0.0 : 3.0);
}

TEST(Random, DeterministicInSeed) {
  const CommMatrix a = random_matrix(16, 0.5, 10.0, 7);
  const CommMatrix b = random_matrix(16, 0.5, 10.0, 7);
  const CommMatrix c = random_matrix(16, 0.5, 10.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Random, DensityBoundsRespected) {
  const CommMatrix empty = random_matrix(16, 0.0, 10.0, 1);
  EXPECT_EQ(empty.total_volume(), 0.0);
  const CommMatrix full = random_matrix(16, 1.0, 10.0, 1);
  for (int i = 0; i < 16; ++i)
    for (int j = i + 1; j < 16; ++j) EXPECT_GT(full.at(i, j), 0.0);
}

TEST(Random, RejectsBadDensity) {
  EXPECT_THROW(random_matrix(4, 1.5, 10.0, 1), ContractError);
  EXPECT_THROW(random_matrix(4, -0.1, 10.0, 1), ContractError);
}

TEST(Clustered, IntraHeavierThanInter) {
  const CommMatrix m = clustered_matrix(8, 4, 100.0, 1.0);
  EXPECT_EQ(m.at(0, 3), 100.0);
  EXPECT_EQ(m.at(0, 4), 1.0);
  EXPECT_EQ(m.at(4, 7), 100.0);
}

TEST(Clustered, RejectsInvertedWeights) {
  EXPECT_THROW(clustered_matrix(8, 4, 1.0, 100.0), ContractError);
}

}  // namespace
}  // namespace orwl::comm
