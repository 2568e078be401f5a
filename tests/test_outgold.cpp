// OUTgold policy tests (paper Section 3 / Section 6.1).
#include "simgen/outgold.hpp"

#include <gtest/gtest.h>

#include <array>

namespace simgen::core {
namespace {

TEST(OutGold, AlternatesByNodeIdOrder) {
  const std::array<net::NodeId, 4> members{net::NodeId{9}, net::NodeId{3}, net::NodeId{7}, net::NodeId{5}};
  const auto targets = make_outgold(members);
  ASSERT_EQ(targets.size(), 4u);
  // Sorted: 3, 5, 7, 9 — alternating starting at false.
  EXPECT_EQ(targets[0].node, 3u);
  EXPECT_FALSE(targets[0].gold);
  EXPECT_EQ(targets[1].node, 5u);
  EXPECT_TRUE(targets[1].gold);
  EXPECT_EQ(targets[2].node, 7u);
  EXPECT_FALSE(targets[2].gold);
  EXPECT_EQ(targets[3].node, 9u);
  EXPECT_TRUE(targets[3].gold);
}

TEST(OutGold, EqualZeroOneSplit) {
  std::vector<net::NodeId> members(10);
  for (net::NodeId i{0}; i < 10; ++i) members[i] = i;
  const auto targets = make_outgold(members);
  int ones = 0;
  for (const Target& target : targets) ones += target.gold ? 1 : 0;
  EXPECT_EQ(ones, 5);
}

TEST(OutGold, OddSizeIsBalancedWithinOne) {
  std::vector<net::NodeId> members(7);
  for (net::NodeId i{0}; i < 7; ++i) members[i] = i;
  const auto targets = make_outgold(members);
  int ones = 0;
  for (const Target& target : targets) ones += target.gold ? 1 : 0;
  EXPECT_TRUE(ones == 3 || ones == 4);
}

TEST(OutGold, FirstValueFlipsPolarity) {
  const std::array<net::NodeId, 2> members{net::NodeId{1}, net::NodeId{2}};
  const auto targets = make_outgold(members, /*first_value=*/true);
  EXPECT_TRUE(targets[0].gold);
  EXPECT_FALSE(targets[1].gold);
}

TEST(OutGold, OrderTargetsByDepthIsDescendingAndStable) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  const std::array<net::NodeId, 1> f1{a};
  const net::NodeId g1 = network.add_lut(f1, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 1> f2{g1};
  const net::NodeId g2 = network.add_lut(f2, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 1> f3{a};
  const net::NodeId g3 = network.add_lut(f3, tt::TruthTable::buffer());
  network.add_po(g2);
  network.add_po(g3);

  std::vector<Target> targets{{g3, false}, {g1, true}, {g2, false}};
  order_targets_by_depth(network, targets);
  EXPECT_EQ(targets[0].node, g2);  // level 2 first
  // Stability: g3 (level 1) appeared before g1 (level 1) and stays first.
  EXPECT_EQ(targets[1].node, g3);
  EXPECT_EQ(targets[2].node, g1);
}

}  // namespace
}  // namespace simgen::core
