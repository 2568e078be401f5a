#include "sim/random_sim.hpp"

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace simgen::sim {

RandomSimResult run_random_simulation(Simulator& simulator, EquivClasses& classes,
                                      const RandomSimOptions& options) {
  obs::PhaseScope phase(obs::PhaseId::kRandomSim);
  RandomSimResult result;
  util::Stopwatch watch;
  watch.start();
  std::size_t flat = 0;
  std::uint64_t last_cost = classes.cost();
  // Round r simulates random word r, keyed only by (seed, pi, r) — see
  // Simulator::random_pattern_word. Downstream consumers (guided
  // simulation's output-goal seeding) read the node values of the last
  // round through simulator.values().
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    {
      obs::PatternScope batch(obs::PatternSource::kRandom, 0);
      simulator.simulate_random_word(options.seed, round);
      classes.refine(simulator.values());
    }
    ++result.rounds_run;
    const std::uint64_t cost = classes.cost();
    result.cost_per_round.push_back(cost);
    if (classes.fully_refined()) break;
    if (options.stagnation_rounds > 0) {
      flat = (cost == last_cost) ? flat + 1 : 0;
      if (flat >= options.stagnation_rounds) break;
    }
    last_cost = cost;
  }
  watch.stop();
  result.runtime_seconds = watch.seconds();
  static obs::Counter& rounds = obs::counter("sim.random_rounds");
  rounds.inc(result.rounds_run);
  phase.set_result(classes.cost(), classes.num_classes());
  return result;
}

}  // namespace simgen::sim
