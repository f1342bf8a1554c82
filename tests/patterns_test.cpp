// Unit tests for the synthetic communication-pattern generators.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

TEST(Directions, OppositeIsInvolution) {
  // On a 3x3 grid, stepping to a neighbour and back again returns home.
  const BlockGrid g{3, 3, 4, 4};
  for (int d = 0; d < kAllDirs; ++d) {
    EXPECT_EQ(opposite(opposite(d)), d);
    EXPECT_NE(opposite(d), d);
    for (int b = 0; b < g.blocks(); ++b) {
      const int nb = g.neighbour(b, d);
      if (nb < 0) continue;
      EXPECT_EQ(g.neighbour(nb, opposite(d)), b) << "block " << b << ", " << d;
    }
  }
}

TEST(BlockGrid, NeighboursOfCentreAndBorderBlocks) {
  // 0 1 2
  // 3 4 5
  // 6 7 8
  const BlockGrid g{3, 3, 4, 4};
  const int centre[kAllDirs] = {1, 7, 3, 5, 0, 2, 6, 8};
  const int north_edge[kAllDirs] = {-1, 4, 0, 2, -1, -1, 3, 5};
  const int west_edge[kAllDirs] = {0, 6, -1, 4, -1, 1, -1, 7};
  const int se_corner[kAllDirs] = {5, -1, 7, -1, 4, -1, -1, -1};
  for (int d = 0; d < kAllDirs; ++d) {
    EXPECT_EQ(g.neighbour(4, d), centre[d]) << d;
    EXPECT_EQ(g.neighbour(1, d), north_edge[d]) << d;
    EXPECT_EQ(g.neighbour(3, d), west_edge[d]) << d;
    EXPECT_EQ(g.neighbour(8, d), se_corner[d]) << d;
  }
  EXPECT_EQ(g.rows(), 12);
  EXPECT_EQ(g.cols(), 12);
  EXPECT_EQ(g.row0(5), 4);
  EXPECT_EQ(g.col0(5), 8);
}

TEST(BlockGrid, CopyFaceTakesEachEdgeAndCorner) {
  // A 3x4 block at (1, 2) of a 5x7 field whose element (r, c) is 10r + c:
  // the stride is wider than the block.
  const long stride = 7;
  std::vector<double> field(5 * stride);
  for (long r = 0; r < 5; ++r)
    for (long c = 0; c < stride; ++c)
      field[static_cast<std::size_t>(r * stride + c)] =
          static_cast<double>(10 * r + c);
  const BlockGrid g{1, 1, 3, 4};
  const double* block = field.data() + 1 * stride + 2;
  const std::vector<std::vector<double>> want = {
      {12, 13, 14, 15}, {32, 33, 34, 35}, {12, 22, 32}, {15, 25, 35},
      {12}, {15}, {32}, {35}};
  for (int d = 0; d < kAllDirs; ++d) {
    const std::vector<double>& face = want[static_cast<std::size_t>(d)];
    ASSERT_EQ(g.face_elems(d), static_cast<long>(face.size()));
    std::vector<double> out(face.size(), -1.0);
    g.copy_face(block, stride, d, out.data());
    EXPECT_EQ(out, face) << "direction " << d;
  }
}

TEST(Stencil, SingleBlockHasNoEdges) {
  const CommMatrix m = stencil_matrix(BlockGrid{1, 1, 1, 1});
  EXPECT_EQ(m.order(), 1);
  EXPECT_EQ(m.total_volume(), 0.0);
}

TEST(Stencil, TwoByTwo) {
  const CommMatrix m = stencil_matrix({2, 2, 4, 8});
  EXPECT_EQ(m.order(), 4);
  // Horizontal neighbours exchange brows doubles: 4*8 = 32 bytes.
  EXPECT_EQ(m.at(0, 1), 32.0);
  EXPECT_EQ(m.at(2, 3), 32.0);
  // Vertical neighbours exchange bcols doubles: 8*8 = 64 bytes.
  EXPECT_EQ(m.at(0, 2), 64.0);
  EXPECT_EQ(m.at(1, 3), 64.0);
  // Diagonals exchange one double = 8 bytes.
  EXPECT_EQ(m.at(0, 3), 8.0);
  EXPECT_EQ(m.at(1, 2), 8.0);
}

TEST(Stencil, CornersCanBeDisabled) {
  const CommMatrix m = stencil_matrix({2, 2, 1, 1}, /*corners=*/false);
  EXPECT_EQ(m.at(0, 3), 0.0);
  EXPECT_EQ(m.at(1, 2), 0.0);
  EXPECT_GT(m.at(0, 1), 0.0);
}

TEST(Stencil, NonPeriodicBorderHasNoWrap) {
  const CommMatrix m = stencil_matrix({4, 1, 1, 1}, /*corners=*/false);
  EXPECT_EQ(m.at(0, 3), 0.0);
}

TEST(Stencil, InteriorBlockDegreeIs8) {
  const CommMatrix m = stencil_matrix({3, 3, 1, 1});
  int degree = 0;
  for (int j = 0; j < 9; ++j)
    if (j != 4 && m.at(4, j) > 0.0) ++degree;
  EXPECT_EQ(degree, 8) << "centre block must touch all 8 neighbours";
}

TEST(Stencil, RejectsBadSpec) {
  EXPECT_THROW(stencil_matrix({0, 1, 1, 1}), ContractError);
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
