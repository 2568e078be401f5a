/// \file simgen_all.hpp
/// \brief Umbrella header: the complete public API of the SimGen library.
///
/// Typical flow (sweep::check_equivalence runs it for two networks):
///   1. Obtain a LUT network — parse BLIF/BENCH, map an AIGER file, or
///      generate a benchmark (simgen::benchgen).
///   2. Build a sim::Simulator and sim::EquivClasses, run random rounds.
///   3. Run core::run_guided_simulation with Strategy::kAiDcMffc to split
///      the classes random patterns cannot.
///   4. Hand the survivors to sweep::Sweeper, or call
///      sweep::check_equivalence for end-to-end CEC of two networks.
#pragma once

#include "aig/aig.hpp"
#include "aig/aig_to_network.hpp"
#include "aig/putontop.hpp"
#include "bdd/bdd.hpp"
#include "bdd/network_bdd.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/generator.hpp"
#include "benchgen/suite.hpp"
#include "check/drat.hpp"
#include "check/lint.hpp"
#include "fuzz/artifact.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/gen.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "io/aiger.hpp"
#include "io/bench.hpp"
#include "io/blif.hpp"
#include "mapping/cuts.hpp"
#include "mapping/lut_mapper.hpp"
#include "network/analysis.hpp"
#include "network/mffc.hpp"
#include "network/network.hpp"
#include "network/scoap.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_cli.hpp"
#include "obs/watchdog.hpp"
#include "sat/dimacs.hpp"
#include "sat/encoder.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "sim/eqclass.hpp"
#include "sim/random_sim.hpp"
#include "sim/simulator.hpp"
#include "simgen/decision.hpp"
#include "simgen/generator.hpp"
#include "simgen/guided_sim.hpp"
#include "simgen/implication.hpp"
#include "simgen/outgold.hpp"
#include "simgen/reverse_sim.hpp"
#include "simgen/rows.hpp"
#include "simgen/tval.hpp"
#include "sweep/cec.hpp"
#include "sweep/sweeper.hpp"
#include "tt/cube.hpp"
#include "tt/isop.hpp"
#include "tt/truth_table.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
