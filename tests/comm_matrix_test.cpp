// Unit tests for comm::CommMatrix.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "comm/comm_matrix.h"
#include "support/assert.h"

namespace orwl::comm {
namespace {

TEST(CommMatrix, StartsZero) {
  CommMatrix m(4);
  EXPECT_EQ(m.order(), 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_EQ(m.at(i, j), 0.0);
  EXPECT_EQ(m.total_volume(), 0.0);
}

TEST(CommMatrix, SetIsSymmetric) {
  CommMatrix m(3);
  m.set(0, 2, 5.0);
  EXPECT_EQ(m.at(0, 2), 5.0);
  EXPECT_EQ(m.at(2, 0), 5.0);
}

TEST(CommMatrix, AddAccumulatesSymmetrically) {
  CommMatrix m(3);
  m.add(1, 2, 2.0);
  m.add(2, 1, 3.0);
  EXPECT_EQ(m.at(1, 2), 5.0);
  EXPECT_EQ(m.at(2, 1), 5.0);
}

TEST(CommMatrix, DiagonalAddOnlyOnce) {
  CommMatrix m(2);
  m.add(1, 1, 4.0);
  EXPECT_EQ(m.at(1, 1), 4.0);
}

TEST(CommMatrix, RejectsNegativeWeight) {
  CommMatrix m(2);
  EXPECT_THROW(m.set(0, 1, -1.0), ContractError);
  EXPECT_THROW(m.add(0, 1, -1.0), ContractError);
}

TEST(CommMatrix, RejectsOutOfRange) {
  CommMatrix m(2);
  EXPECT_THROW((void)m.at(0, 2), ContractError);
  EXPECT_THROW(m.set(-1, 0, 1.0), ContractError);
}

TEST(CommMatrix, TotalVolumeCountsPairsOnce) {
  CommMatrix m(3);
  m.set(0, 1, 1.0);
  m.set(1, 2, 2.0);
  m.set(0, 2, 4.0);
  EXPECT_EQ(m.total_volume(), 7.0);
}

TEST(CommMatrix, ResizeGrowKeepsValues) {
  CommMatrix m(2);
  m.set(0, 1, 3.0);
  m.resize(4);
  EXPECT_EQ(m.order(), 4);
  EXPECT_EQ(m.at(0, 1), 3.0);
  EXPECT_EQ(m.at(0, 3), 0.0);
}

TEST(CommMatrix, ResizeShrinkDropsValues) {
  CommMatrix m(3);
  m.set(0, 2, 3.0);
  m.set(0, 1, 1.0);
  m.resize(2);
  EXPECT_EQ(m.order(), 2);
  EXPECT_EQ(m.at(0, 1), 1.0);
}

TEST(CommMatrix, PaddedAddsZeroRows) {
  CommMatrix m(2);
  m.set(0, 1, 9.0);
  const CommMatrix p = m.padded(2);
  EXPECT_EQ(p.order(), 4);
  EXPECT_EQ(p.at(0, 1), 9.0);
  EXPECT_EQ(p.at(2, 3), 0.0);
  EXPECT_THROW(m.padded(-1), ContractError);
}

TEST(CommMatrix, AggregatedSumsGroupPairs) {
  // 4 entities in two groups {0,1} and {2,3}.
  CommMatrix m(4);
  m.set(0, 2, 1.0);
  m.set(0, 3, 2.0);
  m.set(1, 2, 3.0);
  m.set(1, 3, 4.0);
  m.set(0, 1, 100.0);  // intra-group: must not appear off-diagonal
  const CommMatrix a = m.aggregated({{0, 1}, {2, 3}});
  EXPECT_EQ(a.order(), 2);
  EXPECT_EQ(a.at(0, 1), 10.0);
  EXPECT_EQ(a.at(1, 0), 10.0);
  EXPECT_EQ(a.at(0, 0), 0.0);
}

TEST(CommMatrix, AggregatedSingletonsIsIdentity) {
  CommMatrix m(3);
  m.set(0, 1, 2.0);
  m.set(1, 2, 5.0);
  const CommMatrix a = m.aggregated({{0}, {1}, {2}});
  EXPECT_EQ(a.at(0, 1), 2.0);
  EXPECT_EQ(a.at(1, 2), 5.0);
  EXPECT_EQ(a.at(0, 2), 0.0);
}

TEST(CommMatrix, CsvRoundTrip) {
  CommMatrix m(3);
  m.set(0, 1, 1.5);
  m.set(1, 2, 2.25);
  std::stringstream ss;
  m.save_csv(ss);
  const CommMatrix back = CommMatrix::load_csv(ss);
  EXPECT_EQ(back, m);
}

TEST(CommMatrix, CsvLoadSymmetrizes) {
  std::stringstream ss("0,4\n2,0\n");
  const CommMatrix m = CommMatrix::load_csv(ss);
  EXPECT_EQ(m.order(), 2);
  EXPECT_EQ(m.at(0, 1), 3.0);
  EXPECT_EQ(m.at(1, 0), 3.0);
}

TEST(CommMatrix, CsvRejectsRaggedRows) {
  std::stringstream ss("0,1\n2\n");
  EXPECT_THROW(CommMatrix::load_csv(ss), ContractError);
}

TEST(CommMatrix, ZeroOrderAllowed) {
  CommMatrix m(0);
  EXPECT_EQ(m.order(), 0);
  EXPECT_EQ(m.total_volume(), 0.0);
}

TEST(SharingMatrix, PairsEachLocationsDistinctHolders) {
  // Location 0 (8 B): tasks 0, 1, 2, with task 1 holding two accesses.
  // Location 1 (0 B): ignored. Location 2 (100 B): tasks 2 and 3.
  // Location 3 (5 B): task 1 alone, so no pair.
  const std::vector<std::size_t> bytes{8, 0, 100, 5};
  const std::vector<std::pair<int, int>> accesses{
      {0, 0}, {1, 0}, {1, 0}, {2, 0}, {0, 1}, {3, 1},
      {3, 2}, {2, 2}, {1, 3}};
  const CommMatrix m = sharing_matrix(4, bytes, accesses);
  CommMatrix want(4);
  want.add(0, 1, 8);
  want.add(0, 2, 8);
  want.add(1, 2, 8);
  want.add(2, 3, 100);
  EXPECT_EQ(m, want);

  // The access order does not matter.
  std::vector<std::pair<int, int>> reversed(accesses.rbegin(),
                                            accesses.rend());
  EXPECT_EQ(sharing_matrix(4, bytes, reversed), want);
  EXPECT_THROW((void)sharing_matrix(4, bytes, {{4, 0}}), ContractError);
  EXPECT_THROW((void)sharing_matrix(4, bytes, {{0, 4}}), ContractError);
}

}  // namespace
}  // namespace orwl::comm
