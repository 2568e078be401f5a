// Row database and row-matching tests: the primitive under implication
// and decision.
#include "simgen/rows.hpp"

#include <gtest/gtest.h>

#include <array>

namespace simgen::core {
namespace {

struct AndFixture {
  net::Network network;
  net::NodeId a, b, g;

  AndFixture() {
    a = network.add_pi();
    b = network.add_pi();
    const std::array<net::NodeId, 2> f{a, b};
    g = network.add_lut(f, tt::TruthTable::and_gate(2));
    network.add_po(g);
  }
};

TEST(RowDatabase, AndGateRows) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  const auto list = rows.rows(fx.g);
  // ON: {11}; OFF: {0-, -0} -> 3 rows total.
  ASSERT_EQ(list.size(), 3u);
  int on_rows = 0;
  for (const Row& row : list)
    if (row.output) ++on_rows;
  EXPECT_EQ(on_rows, 1);
}

TEST(RowDatabase, NonLutNodesHaveNoRows) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  EXPECT_TRUE(rows.rows(fx.a).empty());
}

TEST(RowDatabase, RowsAreStableViewsOfOneTable) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  const auto first = rows.rows(fx.g);
  EXPECT_EQ(first.data(), rows.rows(fx.g).data());
  EXPECT_EQ(first.size(), rows.rows(fx.g).size());
}

TEST(RowMatching, UnconstrainedMatchesEverything) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  const NodeValues values(fx.network.num_nodes());
  const auto matches = matching_rows(fx.network, rows, values, fx.g);
  EXPECT_EQ(matches.size(), 3u);
}

TEST(RowMatching, OutputConstraintFiltersPlane) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.g, TVal::kOne);
  const auto matches = matching_rows(fx.network, rows, values, fx.g);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(rows.rows(fx.g)[matches[0]].output);
}

TEST(RowMatching, InputConstraintFiltersCubes) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.a, TVal::kZero);
  // a=0 kills the ON row {11}; both OFF rows survive ({0-} matches, {-0}
  // has a DC on a so it also matches).
  const auto matches = matching_rows(fx.network, rows, values, fx.g);
  EXPECT_EQ(matches.size(), 2u);
  for (const std::size_t m : matches)
    EXPECT_FALSE(rows.rows(fx.g)[m].output);
}

TEST(RowMatching, ContradictionMatchesNothing) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.a, TVal::kZero);
  values.assign(fx.g, TVal::kOne);  // and(0, b) can never be 1
  EXPECT_TRUE(matching_rows(fx.network, rows, values, fx.g).empty());
}

TEST(RowMatching, FullyConsistentAssignmentMatches) {
  const AndFixture fx;
  const RowDatabase rows(fx.network);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.a, TVal::kOne);
  values.assign(fx.b, TVal::kOne);
  values.assign(fx.g, TVal::kOne);
  EXPECT_EQ(matching_rows(fx.network, rows, values, fx.g).size(), 1u);
}

}  // namespace
}  // namespace simgen::core
