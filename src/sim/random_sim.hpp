/// \file random_sim.hpp
/// \brief Random-simulation driver (the RandS baseline of the paper).
///
/// Runs rounds of 64 uniform random patterns, refining the equivalence
/// classes after each round, and records the cost trajectory — the data
/// behind Figure 7's RandS curves and the "one round of random
/// simulation" initialization of Sections 6.2-6.4.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/eqclass.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace simgen::sim {

/// Outcome of a random-simulation run.
struct RandomSimResult {
  std::vector<std::uint64_t> cost_per_round;  ///< Eq. 5 cost after each round.
  double runtime_seconds = 0.0;
  std::size_t rounds_run = 0;
};

/// Options for run_random_simulation.
struct RandomSimOptions {
  /// Rounds to run; the run stops early only once every class is split.
  std::size_t max_rounds = 16;
  std::uint64_t seed = 1;
};

/// Refines \p classes with rounds of random patterns on \p simulator.
RandomSimResult run_random_simulation(Simulator& simulator, EquivClasses& classes,
                                      const RandomSimOptions& options);

}  // namespace simgen::sim
