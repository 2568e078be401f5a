#include "sweep/fraig.hpp"

#include "check/lint.hpp"
#include "obs/journal.hpp"
#include "sim/random_sim.hpp"
#include "simgen/guided_sim.hpp"

namespace simgen::sweep {

FraigResult fraig(const net::Network& network) {
  SIMGEN_DEBUG_LINT(network, "fraig: input network");
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  sim::RandomSimOptions random_options;
  random_options.max_rounds = 8;
  sim::run_random_simulation(simulator, classes, random_options);
  const std::uint64_t cost_after_random = classes.cost();

  if (!classes.fully_refined())
    core::run_guided_simulation(simulator, classes, core::GuidedSimOptions{});
  const std::uint64_t cost_after_guided = classes.cost();

  SIMGEN_DEBUG_LINT(classes, network, &simulator,
                    "fraig: classes before sweeping");

  Sweeper sweeper(network, SweepOptions{});
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
