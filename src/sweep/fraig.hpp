/// \file fraig.hpp
/// \brief The functional-reduction ("fraig") operator: one call that runs
/// the complete Figure 2 flow — random simulation, SimGen-guided
/// simulation, SAT sweeping — and returns the network with every proven
/// equivalence merged and dead logic removed.
///
/// This is the deliverable the surrounding applications (logic
/// optimization, ECO, mapping with choices; paper Section 2.2) consume:
/// a functionally reduced netlist plus the full accounting of how it was
/// obtained. The flow runs with fixed settings: seed 1, 8 random rounds,
/// 20 AI+DC+MFFC guided iterations, and sweeping without a conflict
/// budget.
#pragma once

#include "network/network.hpp"
#include "sweep/reduce.hpp"
#include "sweep/sweeper.hpp"

namespace simgen::sweep {

struct FraigResult {
  net::Network network;          ///< The functionally reduced network.
  SweepResult sweep_stats;       ///< SAT accounting of the proving phase.
  ReductionStats reduction;      ///< Merge/removal accounting.
  std::uint64_t cost_after_random = 0;
  std::uint64_t cost_after_guided = 0;
};

/// Runs the full flow on \p network and returns the reduced equivalent.
[[nodiscard]] FraigResult fraig(const net::Network& network);

}  // namespace simgen::sweep
