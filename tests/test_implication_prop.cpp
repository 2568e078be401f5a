// Property tests of the compiled implication and decision engines against
// a deliberately naive reference that scans every row of a node with
// row_matches, in row order, on every examination, and of the targets
// Algorithm 1 reports satisfied against simulation. Networks come from
// fuzz::random_lut_network with up to 8 fanins per LUT, so row sets of
// more than 64 rows (multi-word masks), duplicate fanins and constant
// drivers all occur.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "fuzz/gen.hpp"
#include "network/mffc.hpp"
#include "network/scoap.hpp"
#include "sim/simulator.hpp"
#include "simgen/decision.hpp"
#include "simgen/generator.hpp"
#include "simgen/guided_sim.hpp"
#include "simgen/implication.hpp"
#include "util/rng.hpp"

namespace simgen::core {
namespace {

constexpr std::uint64_t kNetworksPerShard = 250;
constexpr std::uint64_t kShards = 4;

/// Network number \p index of the campaign (deterministic in the index).
net::Network campaign_network(std::uint64_t index) {
  util::Rng rng(util::splitmix64(index + 0x1a5e));
  fuzz::LutGenOptions options;
  options.num_pis = 3 + static_cast<unsigned>(rng.below(8));
  options.num_pos = 1 + static_cast<unsigned>(rng.below(4));
  options.num_luts = 8 + static_cast<unsigned>(rng.below(33));
  options.max_fanin = 2 + static_cast<unsigned>(rng.below(7));  // 2..8
  return fuzz::random_lut_network(rng, options);
}

/// The implication fixpoint by the definitions alone: the same worklist
/// discipline as ImplicationEngine, but every examination collects the
/// matching rows with matching_rows and derives agreement row by row,
/// including the fanin scan the engine skips while the output is open.
ImplicationOutcome reference_implications(const net::Network& network,
                                          const RowDatabase& rows, NodeValues& values,
                                          std::span<const net::NodeId> seeds,
                                          ImplicationStrategy strategy) {
  ImplicationOutcome outcome;
  std::deque<net::NodeId> queue;
  std::vector<bool> queued(network.num_nodes(), false);
  const auto push = [&](net::NodeId node) {
    if (!network.is_lut(node) || queued[node]) return;
    queued[node] = true;
    queue.push_back(node);
  };
  const auto enqueue_affected = [&](net::NodeId node) {
    push(node);
    for (const net::NodeId fanout : network.fanouts(node)) push(fanout);
  };
  const auto assign = [&](net::NodeId node, TVal value) {
    values.assign(node, value);
    ++outcome.assignments;
    enqueue_affected(node);
  };
  for (const net::NodeId seed : seeds) enqueue_affected(seed);

  while (!queue.empty()) {
    const net::NodeId node = queue.front();
    queue.pop_front();
    queued[node] = false;
    ++outcome.nodes_examined;
    const auto all = rows.rows(node);
    const std::vector<std::size_t> matches = matching_rows(network, rows, values, node);
    if (matches.empty()) {
      outcome.conflict = true;
      outcome.conflict_node = node;
      return outcome;
    }
    if (strategy == ImplicationStrategy::kSimple && matches.size() != 1) continue;

    // Agreement is read off the matching rows as they stood when the
    // node was taken from the queue.
    const Row& first = all[matches[0]];
    bool output_agreed = true;
    for (const std::size_t m : matches) output_agreed &= all[m].output == first.output;
    const auto fanins = network.fanins(node);
    std::vector<TVal> agreed(fanins.size(), TVal::kUnknown);
    for (unsigned v = 0; v < fanins.size(); ++v) {
      bool same = true;
      for (const std::size_t m : matches) {
        const tt::Cube& cube = all[m].cube;
        same &= cube.has_literal(v) &&
                cube.literal_value(v) == first.cube.literal_value(v);
      }
      if (same) agreed[v] = tval_of(first.cube.literal_value(v));
    }
    if (!values.is_assigned(node) && output_agreed) assign(node, tval_of(first.output));
    for (unsigned v = 0; v < fanins.size(); ++v)
      if (agreed[v] != TVal::kUnknown && !values.is_assigned(fanins[v]))
        assign(fanins[v], agreed[v]);
  }
  return outcome;
}

/// decide() by the definitions alone: matching_rows, then a roulette
/// draw over row_priority (plus the SCOAP bonus), then the chosen row.
DecisionOutcome reference_decide(const net::Network& network, const RowDatabase& rows,
                                 NodeValues& values, net::NodeId node,
                                 DecisionStrategy strategy, const net::MffcDepthCache& mffc,
                                 const net::ScoapCosts& scoap, util::Rng& rng) {
  DecisionOutcome outcome;
  const auto all = rows.rows(node);
  const std::vector<std::size_t> matches = matching_rows(network, rows, values, node);
  if (matches.empty()) return outcome;
  std::size_t chosen = matches[0];
  if (matches.size() > 1) {
    std::vector<double> cdf;
    double total = 0.0;
    for (const std::size_t m : matches) {
      double priority = row_priority(network, &mffc, node, all[m], strategy);
      if (strategy == DecisionStrategy::kDontCareScoap)
        priority += kGamma * scoap_row_bonus(network, scoap, node, all[m]);
      total += 1e-6 + priority;
      cdf.push_back(total);
    }
    const double draw = rng.uniform01() * total;
    std::size_t index = 0;
    while (index + 1 < matches.size() && cdf[index] <= draw) ++index;
    chosen = matches[index];
  }
  outcome.made = true;
  outcome.row_index = chosen;
  const Row& row = all[chosen];
  if (!values.is_assigned(node)) {
    values.assign(node, tval_of(row.output));
    ++outcome.assignments;
  }
  const auto fanins = network.fanins(node);
  for (unsigned v = 0; v < fanins.size(); ++v) {
    if (row.cube.has_literal(v) && !values.is_assigned(fanins[v])) {
      values.assign(fanins[v], tval_of(row.cube.literal_value(v)));
      ++outcome.assignments;
    }
  }
  return outcome;
}

/// Trail entries after \p mark as (node, value) pairs.
std::vector<std::pair<net::NodeId, TVal>> trail_after(const NodeValues& values,
                                                      std::size_t mark) {
  std::vector<std::pair<net::NodeId, TVal>> entries;
  for (std::size_t i = mark; i < values.trail().size(); ++i)
    entries.emplace_back(values.trail()[i], values.get(values.trail()[i]));
  return entries;
}

/// Values of every node under 64 random PI vectors: bit p of entry id
/// is node id's value under vector p.
std::vector<sim::PatternWord> simulate_random_vectors(const net::Network& network,
                                                      util::Rng& rng) {
  sim::Simulator simulator(network);
  std::vector<sim::PatternWord> words(network.num_pis());
  for (auto& word : words) word = rng();
  simulator.simulate_word(words);
  std::vector<sim::PatternWord> truth(network.num_nodes());
  network.for_each_node([&](net::NodeId id) { truth[id] = simulator.value(id); });
  return truth;
}

/// Bits of values_under_fill: the node was 0, or 1, on some pattern.
constexpr std::uint8_t kSeenZero = 1;
constexpr std::uint8_t kSeenOne = 2;

/// Per node, which values it takes over 8 words of patterns in which each
/// PI \p vector assigns has that value and each PI it leaves free takes
/// random bits.
std::vector<std::uint8_t> values_under_fill(const net::Network& network,
                                            sim::Simulator& simulator,
                                            const VectorResult& vector, util::Rng& rng) {
  std::vector<std::uint8_t> seen(network.num_nodes(), 0);
  std::vector<sim::PatternWord> words(network.num_pis());
  for (int fill = 0; fill < 8; ++fill) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      const TVal value = vector.pi_values[i];
      words[i] = value == TVal::kUnknown ? rng() : value == TVal::kOne ? ~sim::PatternWord{0} : 0;
    }
    simulator.simulate_word(words);
    network.for_each_node([&](net::NodeId id) {
      const sim::PatternWord word = simulator.value(id);
      if (word != 0) seen[id] |= kSeenOne;
      if (word != ~sim::PatternWord{0}) seen[id] |= kSeenZero;
    });
  }
  return seen;
}

class ImplicationProp : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  template <typename Fn>
  void for_each_network(Fn&& fn) {
    for (std::uint64_t k = 0; k < kNetworksPerShard; ++k) {
      const std::uint64_t index = GetParam() * kNetworksPerShard + k;
      const net::Network network = campaign_network(index);
      const RowDatabase rows(network);
      network.for_each_lut([&](net::NodeId id) {
        if (rows.mask_words(id) > 1) ++multiword_luts_;
        const auto fanins = network.fanins(id);
        for (std::size_t i = 0; i < fanins.size(); ++i)
          for (std::size_t j = 0; j < i; ++j)
            if (fanins[i] == fanins[j]) ++duplicate_fanins_;
      });
      fn(index, network, rows);
    }
    // The campaign must reach the shapes it exists for.
    EXPECT_GT(multiword_luts_, 0u) << "no LUT with more than 64 rows";
    EXPECT_GT(duplicate_fanins_, 0u) << "no LUT with a duplicate fanin";
  }

 private:
  std::size_t multiword_luts_ = 0;
  std::size_t duplicate_fanins_ = 0;
};

constexpr ImplicationStrategy kStrategies[] = {ImplicationStrategy::kSimple,
                                               ImplicationStrategy::kAdvanced};

TEST_P(ImplicationProp, ImpliedValuesMatchASimulatedVector) {
  std::size_t cases = 0;
  for_each_network([&](std::uint64_t index, const net::Network& network,
                       const RowDatabase& rows) {
    util::Rng rng(index * 7 + 1);
    ImplicationEngine engine(network, rows);
    const std::vector<sim::PatternWord> words = simulate_random_vectors(network, rng);
    for (unsigned vector = 0; vector < 8; ++vector) {
      const auto truth = [&](net::NodeId id) { return tval_of((words[id] >> vector) & 1u); };
      const double density = 0.05 + 0.3 * rng.uniform01();
      for (const ImplicationStrategy strategy : kStrategies) {
        NodeValues values(network.num_nodes());
        std::vector<net::NodeId> seeds;
        network.for_each_node([&](net::NodeId id) {
          if (!rng.chance(density)) return;
          values.assign(id, truth(id));
          seeds.push_back(id);
        });
        const std::size_t premises = values.num_assigned();
        const ImplicationOutcome outcome = engine.run(values, seeds, strategy);
        ++cases;
        ASSERT_FALSE(outcome.conflict)
            << "network " << index << ": consistent seeds conflicted at node "
            << outcome.conflict_node;
        for (std::size_t i = premises; i < values.trail().size(); ++i) {
          const net::NodeId node = values.trail()[i];
          ASSERT_EQ(values.get(node), truth(node))
              << "network " << index << ": unsound implication at node " << node;
        }
      }
    }
  });
  EXPECT_EQ(cases, kNetworksPerShard * 8 * 2);
}

TEST_P(ImplicationProp, CompiledEngineMatchesTheReference) {
  std::size_t conflicts = 0;
  for_each_network([&](std::uint64_t index, const net::Network& network,
                       const RowDatabase& rows) {
    util::Rng rng(index * 13 + 5);
    ImplicationEngine engine(network, rows);
    for (int round = 0; round < 8; ++round) {
      const double density = 0.02 + 0.2 * rng.uniform01();
      NodeValues start(network.num_nodes());
      std::vector<net::NodeId> seeds;
      network.for_each_node([&](net::NodeId id) {
        if (!rng.chance(density)) return;
        start.assign(id, tval_of(rng.flip()));
        seeds.push_back(id);
      });
      for (const ImplicationStrategy strategy : kStrategies) {
        NodeValues compiled = start;
        NodeValues reference = start;
        const ImplicationOutcome got = engine.run(compiled, seeds, strategy);
        const ImplicationOutcome want =
            reference_implications(network, rows, reference, seeds, strategy);
        const std::size_t mark = start.mark();
        ASSERT_EQ(trail_after(compiled, mark), trail_after(reference, mark))
            << "network " << index << " round " << round;
        ASSERT_EQ(got.conflict, want.conflict) << "network " << index;
        ASSERT_EQ(got.conflict_node, want.conflict_node) << "network " << index;
        ASSERT_EQ(got.assignments, want.assignments) << "network " << index;
        // The same visit sequence, not only the same trail.
        ASSERT_EQ(got.nodes_examined, want.nodes_examined) << "network " << index;
        conflicts += got.conflict ? 1 : 0;
      }
    }
  });
  EXPECT_GT(conflicts, 0u) << "random seeds never reached a conflict";
}

TEST_P(ImplicationProp, DecisionsMatchTheReference) {
  constexpr DecisionStrategy kDecisions[] = {
      DecisionStrategy::kRandom, DecisionStrategy::kDontCare,
      DecisionStrategy::kDontCareMffc, DecisionStrategy::kDontCareScoap};
  std::size_t made = 0;
  std::size_t not_made = 0;
  for_each_network([&](std::uint64_t index, const net::Network& network,
                       const RowDatabase& rows) {
    std::vector<net::NodeId> luts;
    network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
    const net::MffcDepthCache mffc(network);
    const net::ScoapCosts scoap = net::compute_scoap(network);
    DecisionEngine engine(network, rows);
    engine.set_scoap(&scoap);
    util::Rng rng(index * 29 + 3);
    for (int round = 0; round < 8; ++round) {
      NodeValues start(network.num_nodes());
      const double density = 0.3 * rng.uniform01();
      network.for_each_node([&](net::NodeId id) {
        if (rng.chance(density)) start.assign(id, tval_of(rng.flip()));
      });
      const net::NodeId node = luts[rng.below(luts.size())];
      for (const DecisionStrategy strategy : kDecisions) {
        const std::uint64_t draw_seed = rng();
        util::Rng compiled_rng(draw_seed);
        util::Rng reference_rng(draw_seed);
        NodeValues compiled = start;
        NodeValues reference = start;
        const DecisionOutcome got =
            engine.decide(compiled, node, strategy, &mffc, compiled_rng);
        const DecisionOutcome want = reference_decide(network, rows, reference, node,
                                                      strategy, mffc, scoap, reference_rng);
        ASSERT_EQ(got.made, want.made) << "network " << index << " node " << node;
        ASSERT_EQ(got.row_index, want.row_index) << "network " << index << " node " << node;
        ASSERT_EQ(got.assignments, want.assignments) << "network " << index;
        ASSERT_EQ(trail_after(compiled, start.mark()), trail_after(reference, start.mark()))
            << "network " << index << " node " << node;
        ASSERT_EQ(compiled_rng(), reference_rng()) << "network " << index;
        ++(got.made ? made : not_made);
      }
    }
  });
  EXPECT_GT(made, 0u);
  EXPECT_GT(not_made, 0u);
}

TEST_P(ImplicationProp, ReportedTargetHitsHoldUnderRandomFill) {
  // A target generate() reports satisfied must take its gold whatever the
  // PIs the vector leaves free are filled with: for one target at a time
  // (every LUT, both golds), and for alternating-gold target sets of
  // random LUTs, where at least as many targets of each gold must hold as
  // were reported.
  constexpr Strategy kSimGenArms[] = {Strategy::kSiRd, Strategy::kAiRd, Strategy::kAiDc,
                                      Strategy::kAiDcMffc, Strategy::kAiDcScoap};
  std::size_t single_hits = 0;
  std::size_t set_hits = 0;
  for_each_network([&](std::uint64_t index, const net::Network& network, const RowDatabase&) {
    std::vector<net::NodeId> luts;
    network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
    sim::Simulator simulator(network);
    util::Rng rng(index * 31 + 7);
    for (const Strategy arm : kSimGenArms) {
      PatternGenerator generator(network, generator_options_for(arm), index);
      for (const net::NodeId node : luts) {
        for (const bool gold : {false, true}) {
          const Target target{node, gold};
          const VectorResult vector = generator.generate({&target, 1});
          if (vector.satisfied_zero + vector.satisfied_one == 0) continue;
          ++single_hits;
          const auto seen = values_under_fill(network, simulator, vector, rng);
          ASSERT_EQ(seen[node], gold ? kSeenOne : kSeenZero)
              << "network " << index << ", " << strategy_name(arm) << ": target node "
              << node << " = " << gold << " reported satisfied but misses";
        }
      }
      for (int set = 0; set < 8; ++set) {
        std::vector<net::NodeId> members;
        for (const net::NodeId node : luts)
          if (rng.chance(0.3)) members.push_back(node);
        const std::vector<Target> targets = make_outgold(members, rng.flip());
        const VectorResult vector = generator.generate(targets);
        const auto seen = values_under_fill(network, simulator, vector, rng);
        std::size_t held[2] = {0, 0};
        for (const Target& target : targets)
          if (seen[target.node] == (target.gold ? kSeenOne : kSeenZero)) ++held[target.gold];
        ASSERT_GE(held[0], vector.satisfied_zero)
            << "network " << index << ", " << strategy_name(arm) << ", set " << set;
        ASSERT_GE(held[1], vector.satisfied_one)
            << "network " << index << ", " << strategy_name(arm) << ", set " << set;
        set_hits += vector.satisfied_zero + vector.satisfied_one;
      }
    }
  });
  EXPECT_GT(single_hits, 0u);
  EXPECT_GT(set_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ImplicationProp, ::testing::Range<std::uint64_t>(0, kShards));

}  // namespace
}  // namespace simgen::core
