// simgen-pattern-scope fixture: MUST be clean.
// The PatternScope local attributes every split in the batch; placing it
// before a loop of refine() calls also counts (the check accepts a scope
// anywhere in the enclosing function).
#include "obs/journal.hpp"
#include "sim/eqclass.hpp"
#include "sim/simulator.hpp"

std::size_t attributed_refine(simgen::sim::EquivClasses& classes,
                              const simgen::sim::Simulator& simulator) {
  const simgen::obs::PatternScope scope(simgen::obs::PatternSource::kRandom,
                                        /*patterns=*/0);
  return classes.refine(simulator.values());
}
