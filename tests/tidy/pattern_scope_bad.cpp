// simgen-pattern-scope fixture: MUST produce the diagnostic.
// refine() with no obs::PatternScope anywhere in the enclosing function:
// every class split it causes would be journaled as PatternSource::kNone.
#include "sim/eqclass.hpp"
#include "sim/simulator.hpp"

std::size_t unattributed_refine(simgen::sim::EquivClasses& classes,
                                const simgen::sim::Simulator& simulator) {
  return classes.refine(simulator.values());
}
