// Decision-policy tests: Equation 1 (DC count), Equation 3 (MFFC rank),
// Equation 4 (combined priority), roulette selection, and conflicts.
#include "simgen/decision.hpp"

#include <gtest/gtest.h>

#include <array>

namespace simgen::core {
namespace {

// f = (a & b) | c — ON rows {--1} (2 DCs) and {11-} (1 DC); decision for
// out=1 under the DC heuristic must prefer the c-row.
struct DcFixture {
  net::Network network;
  net::NodeId a, b, c, g;

  DcFixture() {
    a = network.add_pi();
    b = network.add_pi();
    c = network.add_pi();
    const std::array<net::NodeId, 3> f{a, b, c};
    const auto table = (tt::TruthTable::projection(3, 0) &
                        tt::TruthTable::projection(3, 1)) |
                       tt::TruthTable::projection(3, 2);
    g = network.add_lut(f, table);
    network.add_po(g);
  }
};

TEST(Decision, AppliesChosenRowCompletely) {
  DcFixture fx;
  const RowDatabase rows(fx.network);
  const net::MffcDepthCache mffc(fx.network);
  util::Rng rng(1);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.g, TVal::kOne);

  const DecisionOutcome outcome =
      decide(fx.network, rows, values, fx.g, DecisionStrategy::kRandom,
             &mffc, rng);
  ASSERT_TRUE(outcome.made);
  EXPECT_GT(outcome.assignments, 0u);
  // Whichever row was chosen, its literals are now assigned and the
  // assignment is consistent with out=1.
  const bool c_set = values.is_assigned(fx.c) && values.get(fx.c) == TVal::kOne;
  const bool ab_set = values.is_assigned(fx.a) && values.is_assigned(fx.b) &&
                      values.get(fx.a) == TVal::kOne &&
                      values.get(fx.b) == TVal::kOne;
  EXPECT_TRUE(c_set || ab_set);
}

TEST(Decision, NoMatchingRowReportsConflict) {
  DcFixture fx;
  const RowDatabase rows(fx.network);
  const net::MffcDepthCache mffc(fx.network);
  util::Rng rng(2);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.g, TVal::kOne);
  values.assign(fx.a, TVal::kZero);
  values.assign(fx.c, TVal::kZero);  // (0 & b) | 0 can never be 1
  const DecisionOutcome outcome =
      decide(fx.network, rows, values, fx.g, DecisionStrategy::kRandom,
             &mffc, rng);
  EXPECT_FALSE(outcome.made);
}

TEST(Decision, DcHeuristicPrefersRowsWithMoreDontCares) {
  DcFixture fx;
  const RowDatabase rows(fx.network);
  const net::MffcDepthCache mffc(fx.network);
  util::Rng rng(3);

  int picked_c = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    NodeValues values(fx.network.num_nodes());
    values.assign(fx.g, TVal::kOne);
    const DecisionOutcome outcome =
        decide(fx.network, rows, values, fx.g, DecisionStrategy::kDontCare,
               &mffc, rng);
    ASSERT_TRUE(outcome.made);
    if (values.is_assigned(fx.c) && !values.is_assigned(fx.a)) ++picked_c;
  }
  // Roulette weights: kAlpha*2 vs kAlpha*1 -> the 2-DC row should win about
  // 2/3 of the time; demand a clear majority.
  EXPECT_GT(picked_c, trials / 2);
}

TEST(Decision, RandomPolicyIsRoughlyUniform) {
  DcFixture fx;
  const RowDatabase rows(fx.network);
  const net::MffcDepthCache mffc(fx.network);
  util::Rng rng(4);

  int picked_c = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    NodeValues values(fx.network.num_nodes());
    values.assign(fx.g, TVal::kOne);
    decide(fx.network, rows, values, fx.g, DecisionStrategy::kRandom,
           &mffc, rng);
    if (values.is_assigned(fx.c) && !values.is_assigned(fx.a)) ++picked_c;
  }
  EXPECT_GT(picked_c, trials / 4);
  EXPECT_LT(picked_c, 3 * trials / 4);
}

// MFFC fixture: z = and(x, y) where x ends a private chain of inverters
// (deep MFFC) and y's fanins are shared (depth-0 MFFC). Equation 3 must
// rank the row constraining x above the row constraining y. The chain is
// long enough that the beta term visibly tilts decisions under
// alpha >> beta.
struct MffcFixture {
  static constexpr int kChain = 200;
  net::Network network;
  net::NodeId p0, p1, x, y, z;

  MffcFixture() {
    p0 = network.add_pi();
    p1 = network.add_pi();
    const auto nott = tt::TruthTable::not_gate();
    x = p0;
    for (int i = 0; i < kChain; ++i) {
      const std::array<net::NodeId, 1> fanin{x};
      x = network.add_lut(fanin, nott);  // private chain -> deep MFFC
    }
    const std::array<net::NodeId, 2> fy{p0, p1};
    y = network.add_lut(fy, tt::TruthTable::and_gate(2));
    const std::array<net::NodeId, 2> fz{x, y};
    z = network.add_lut(fz, tt::TruthTable::and_gate(2));
    network.add_po(z);
    // Share y's structure into another PO so its MFFC stays shallow.
    const std::array<net::NodeId, 2> fshare{y, p1};
    network.add_po(network.add_lut(fshare, tt::TruthTable::or_gate(2)));
  }
};

TEST(Decision, MffcRankFollowsEquation3) {
  MffcFixture fx;
  const net::MffcDepthCache mffc(fx.network);
  // Row constraining only input 0 (x).
  Row row_x;
  row_x.cube.set_literal(0, false);
  row_x.output = false;
  // Row constraining only input 1 (y).
  Row row_y;
  row_y.cube.set_literal(1, false);
  row_y.output = false;

  const double rank_x = mffc_rank(fx.network, mffc, fx.z, row_x);
  const double rank_y = mffc_rank(fx.network, mffc, fx.z, row_y);
  EXPECT_DOUBLE_EQ(rank_x, mffc.depth(fx.x));
  EXPECT_DOUBLE_EQ(rank_y, mffc.depth(fx.y));
  EXPECT_GT(rank_x, rank_y);  // deep MFFC -> higher rank -> constrain it

  // Equation 4: with equal DC counts the beta term decides.
  const double prio_x =
      row_priority(fx.network, &mffc, fx.z, row_x, DecisionStrategy::kDontCareMffc);
  const double prio_y =
      row_priority(fx.network, &mffc, fx.z, row_y, DecisionStrategy::kDontCareMffc);
  EXPECT_DOUBLE_EQ(prio_x - prio_y, kBeta * (rank_x - rank_y));
  EXPECT_GT(prio_x, prio_y);
}

TEST(Decision, MffcHeuristicPrefersConstrainingDeepCones) {
  MffcFixture fx;
  const RowDatabase rows(fx.network);
  const net::MffcDepthCache mffc(fx.network);
  // Both rows leave one DC, so kAlpha adds the same 100 to each and the
  // MFFC ranks (199 for x, 0 for y) tilt the roulette about 3:1 toward x.
  ASSERT_DOUBLE_EQ(mffc.depth(fx.x), MffcFixture::kChain - 1);
  util::Rng rng(5);

  int constrained_x = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    NodeValues values(fx.network.num_nodes());
    values.assign(fx.z, TVal::kZero);
    const DecisionOutcome outcome =
        decide(fx.network, rows, values, fx.z, DecisionStrategy::kDontCareMffc,
               &mffc, rng);
    ASSERT_TRUE(outcome.made);
    // and(x,y)=0 rows: {x=0, y DC} or {y=0, x DC}.
    if (values.is_assigned(fx.x) && !values.is_assigned(fx.y)) ++constrained_x;
  }
  EXPECT_GT(constrained_x, trials / 2);
}

TEST(Decision, AlphaDominatesBetaInEquation4) {
  // A row with an extra DC must outrank any realistic MFFC contribution
  // when alpha >> beta (the paper's requirement).
  DcFixture fx;
  const net::MffcDepthCache mffc(fx.network);
  Row two_dc;  // {--1}
  two_dc.cube.set_literal(2, true);
  two_dc.output = true;
  Row one_dc;  // {11-}
  one_dc.cube.set_literal(0, true);
  one_dc.cube.set_literal(1, true);
  one_dc.output = true;
  EXPECT_GT(row_priority(fx.network, &mffc, fx.g, two_dc,
                         DecisionStrategy::kDontCareMffc),
            row_priority(fx.network, &mffc, fx.g, one_dc,
                         DecisionStrategy::kDontCareMffc));
}

}  // namespace
}  // namespace simgen::core
