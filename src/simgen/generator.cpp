#include "simgen/generator.hpp"

namespace simgen::core {

GeneratorStats::GeneratorStats(obs::register_t)
    : targets_attempted("simgen.targets_attempted"),
      targets_satisfied("simgen.targets_satisfied"),
      conflicts("simgen.conflicts"),
      implications("simgen.implications"),
      decisions("simgen.decisions") {}

PatternGenerator::PatternGenerator(const net::Network& network,
                                   GeneratorOptions options, std::uint64_t seed)
    : network_(network),
      options_(options),
      rows_(network),
      mffc_(network),
      rng_(seed),
      values_(network.num_nodes()),
      implication_(network, rows_),
      decision_(network, rows_),
      in_cone_stamp_(network.num_nodes(), 0) {
  network_.for_each_node([&](net::NodeId id) {
    if (network_.is_constant(id)) constants_.push_back(id);
  });
  if (options_.decision == DecisionStrategy::kDontCareScoap) {
    scoap_.emplace(net::compute_scoap(network_));
    decision_.set_scoap(&*scoap_);
  }
}

void PatternGenerator::mark_cone(net::NodeId root) {
  cone_stack_.clear();
  cone_stack_.push_back(root);
  in_cone_stamp_[root] = stamp_;
  while (!cone_stack_.empty()) {
    const net::NodeId node = cone_stack_.back();
    cone_stack_.pop_back();
    for (const net::NodeId fanin : rows_.fanins(node)) {
      if (in_cone_stamp_[fanin] == stamp_) continue;
      in_cone_stamp_[fanin] = stamp_;
      cone_stack_.push_back(fanin);
    }
  }
}

VectorResult PatternGenerator::generate(std::span<const Target> targets) {
  values_.reset();
  // Constants carry their fixed values from the start so implications can
  // see through them (and conflicts against them are detected).
  for (net::NodeId id : constants_)
    values_.assign(id, tval_of(network_.node(id).constant_value));

  // Algorithm 1 line 2: process targets furthest from the PIs first.
  std::vector<Target> ordered(targets.begin(), targets.end());
  order_targets_by_depth(network_, ordered);

  VectorResult result;
  for (const Target& target : ordered) {
    stats_.targets_attempted.inc();
    bool satisfied = false;
    if (values_.is_assigned(target.node)) {
      // A previous target's propagation already fixed this node; it either
      // happens to agree with the OUTgold value or this target is lost
      // (no backtracking).
      satisfied = values_.get(target.node) == tval_of(target.gold);
      if (!satisfied) stats_.conflicts.inc();
    } else {
      satisfied = process_target(target);
    }
    if (satisfied) {
      stats_.targets_satisfied.inc();
      ++(target.gold ? result.satisfied_one : result.satisfied_zero);
    }
  }

  result.pi_values.reserve(network_.num_pis());
  for (net::NodeId pi : network_.pis()) result.pi_values.push_back(values_.get(pi));
  return result;
}

bool PatternGenerator::process_target(const Target& target) {
  // Algorithm 1 line 4: snapshot so a conflict can restore initVals.
  const std::size_t init_mark = values_.mark();

  // Line 6: listDfs — the fanin cone of the target (stamped membership).
  ++stamp_;
  mark_cone(target.node);

  // Line 5: nodeVals[targetNode] = OUTgold[targetNode].
  values_.assign(target.node, tval_of(target.gold));

  // Lines 8-16: interleave implication and decision until the cone is
  // saturated or a conflict occurs. `seed_start` tracks which trail
  // entries still need to be propagated by the next implication run.
  std::size_t seed_start = init_mark;
  candidates_.clear();
  while (true) {
    // Line 9: implication from everything assigned since the last run.
    const auto& trail = values_.trail();
    const std::span<const net::NodeId> seeds(trail.data() + seed_start,
                                             trail.size() - seed_start);
    const ImplicationOutcome implied =
        implication_.run(values_, seeds, options_.implication);
    stats_.implications.inc(implied.assignments);
    if (implied.conflict) {
      // Lines 11-13: conflict — restore initVals, abandon this target.
      stats_.conflicts.inc();
      values_.rollback_to(init_mark);
      return false;
    }
    // Every in-cone LUT assigned since the last look becomes a candidate.
    // No node is assigned twice within a target, so each trail entry is
    // pushed once.
    for (std::size_t i = seed_start; i < trail.size(); ++i) {
      const net::NodeId node = trail[i];
      if (in_cone_stamp_[node] == stamp_ && rows_.is_lut(node))
        candidates_.push_back(node);
    }
    seed_start = trail.size();

    // Line 15: latestUpdated — the most recently assigned, not yet
    // visited node inside the target's cone that still has work (an
    // unassigned fanin to decide). The candidates stack holds exactly the
    // unvisited in-cone LUT trail entries in trail order, so popping
    // visits them newest first. DC-left fanins never enter the trail, so
    // their subtrees are correctly left free.
    net::NodeId candidate = net::kNullNode;
    while (!candidates_.empty()) {
      const net::NodeId node = candidates_.back();
      candidates_.pop_back();  // visited either way
      bool has_open_fanin = false;
      for (const net::NodeId fanin : rows_.fanins(node)) {
        if (!values_.is_assigned(fanin)) {
          has_open_fanin = true;
          break;
        }
      }
      if (has_open_fanin) {
        candidate = node;
        break;
      }
    }
    if (candidate == net::kNullNode) return true;  // cone saturated: success

    // Line 16: decision at the candidate.
    const DecisionOutcome outcome =
        decision_.decide(values_, candidate, options_.decision, &mffc_, rng_);
    if (!outcome.made) {
      stats_.conflicts.inc();
      values_.rollback_to(init_mark);
      return false;
    }
    stats_.decisions.inc();
  }
}

}  // namespace simgen::core
