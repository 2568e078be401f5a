#include "sweep/fraig.hpp"

#include "check/lint.hpp"
#include "obs/journal.hpp"
#include "sim/random_sim.hpp"

namespace simgen::sweep {

FraigResult fraig(const net::Network& network, const FraigOptions& options) {
  SIMGEN_DEBUG_LINT(network, "fraig: input network");
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  sim::RandomSimOptions random_options;
  random_options.max_rounds = options.random_rounds;
  random_options.seed = options.seed;
  sim::run_random_simulation(simulator, classes, random_options);
  const std::uint64_t cost_after_random = classes.cost();

  if (options.use_guided_simulation && !classes.fully_refined()) {
    core::GuidedSimOptions guided;
    guided.strategy = options.guided_strategy;
    guided.iterations = options.guided_iterations;
    guided.seed = options.seed;
    core::run_guided_simulation(simulator, classes, guided);
  }
  const std::uint64_t cost_after_guided = classes.cost();

  SIMGEN_DEBUG_LINT(classes, network, &simulator,
                    "fraig: classes before sweeping");

  SweepOptions sweep_options = options.sweep;
  sweep_options.seed = options.seed;
  Sweeper sweeper(network, sweep_options);
  SweepResult sweep_stats = sweeper.run(classes, simulator);

  ReductionStats reduction;
  net::Network reduced;
  {
    obs::PhaseScope reduce_phase(obs::PhaseId::kReduce);
    reduced = reduce_network(network, sweep_stats.proven_pairs, &reduction);
    reduce_phase.set_result(reduction.merged_nodes, 0);
  }
  SIMGEN_DEBUG_LINT(reduced, "fraig: reduced network");

  return FraigResult{std::move(reduced), std::move(sweep_stats), reduction,
                     cost_after_random, cost_after_guided};
}

}  // namespace simgen::sweep
