#include "sim/random_sim.hpp"

#include <algorithm>

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
  // Rounds are simulated a block at a time (word w of the block is global
  // round `round + w`, keyed only by (seed, pi, round) — see
  // Simulator::random_pattern_word) but refined and accounted one word at
  // a time, so the cost trajectory, journal, and early-stop decisions are
  // identical at every block width. A stagnation break mid-block leaves
  // the rest of the block simulated but unconsumed.
  std::size_t round = 0;
  bool stop = false;
  while (round < options.max_rounds && !stop) {
    const std::size_t chunk =
        std::min(simulator.block_words(), options.max_rounds - round);
    simulator.simulate_random_block(options.seed, round, chunk);
    for (std::size_t w = 0; w < chunk; ++w) {
      {
        obs::PatternScope batch(obs::PatternSource::kRandom, 0);
        classes.refine_word(simulator, w);
      }
      // Downstream consumers (guided simulation's output-goal seeding)
      // read node values of the last refined round.
      simulator.set_observed_word(w);
      ++result.rounds_run;
      ++round;
      const std::uint64_t cost = classes.cost();
      result.cost_per_round.push_back(cost);
      if (classes.fully_refined()) {
        stop = true;
        break;
      }
      if (options.stagnation_rounds > 0) {
        flat = (cost == last_cost) ? flat + 1 : 0;
        if (flat >= options.stagnation_rounds) {
          stop = true;
          break;
        }
      }
      last_cost = cost;
    }
  }
  watch.stop();
  result.runtime_seconds = watch.seconds();
  static obs::Counter& rounds = obs::counter("sim.random_rounds");
  rounds.inc(result.rounds_run);
  phase.set_result(classes.cost(), classes.num_classes());
  return result;
}

}  // namespace simgen::sim
