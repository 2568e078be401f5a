#include "sweep/cec.hpp"

#include <array>
#include <bit>
#include <exception>
#include <stdexcept>

#include "check/lint.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/random_sim.hpp"
#include "util/stopwatch.hpp"

namespace simgen::sweep {

Miter make_miter(const net::Network& a, const net::Network& b) {
  if (a.num_pis() != b.num_pis())
    throw std::invalid_argument("make_miter: PI count mismatch");
  if (a.num_pos() != b.num_pos())
    throw std::invalid_argument("make_miter: PO count mismatch");

  Miter miter;
  miter.network.set_name(a.name() + "_vs_" + b.name());
  miter.map_a.assign(a.num_nodes(), net::kNullNode);
  miter.map_b.assign(b.num_nodes(), net::kNullNode);

  // Shared PIs (correspondence by index).
  std::vector<net::NodeId> shared_pis;
  shared_pis.reserve(a.num_pis());
  for (std::size_t i = 0; i < a.num_pis(); ++i)
    shared_pis.push_back(miter.network.add_pi(a.node(a.pis()[i]).name));

  const auto copy_logic = [&](const net::Network& source,
                              std::vector<net::NodeId>& map) {
    for (std::size_t i = 0; i < source.num_pis(); ++i)
      map[source.pis()[i]] = shared_pis[i];
    source.for_each_node([&](net::NodeId id) {
      if (source.is_constant(id)) {
        map[id] = miter.network.add_constant(source.node(id).constant_value);
      } else if (source.is_lut(id)) {
        std::vector<net::NodeId> fanins;
        fanins.reserve(source.fanins(id).size());
        for (net::NodeId fanin : source.fanins(id)) fanins.push_back(map[fanin]);
        map[id] = miter.network.add_lut(fanins, source.node(id).function);
      }
    });
  };
  copy_logic(a, miter.map_a);
  copy_logic(b, miter.map_b);

  // One XOR node + PO per output pair.
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    const net::NodeId driver_a = miter.map_a[a.fanins(a.pos()[i])[0]];
    const net::NodeId driver_b = miter.map_b[b.fanins(b.pos()[i])[0]];
    const std::array<net::NodeId, 2> fanins{driver_a, driver_b};
    const net::NodeId diff =
        miter.network.add_lut(fanins, tt::TruthTable::xor_gate(2));
    miter.network.add_po(diff, "diff" + std::to_string(i));
  }
  return miter;
}

namespace {

/// Extracts pattern \p bit of the last simulated word as a PI vector.
std::vector<bool> pattern_of_bit(const sim::Simulator& simulator, unsigned bit) {
  const net::Network& network = simulator.network();
  std::vector<bool> vector(network.num_pis());
  for (std::size_t i = 0; i < network.num_pis(); ++i)
    vector[i] = (simulator.value(network.pis()[i]) >> bit) & 1u;
  return vector;
}

/// True iff any miter PO is 1 under \p vector (single-pattern check).
bool violates(sim::Simulator& simulator, const std::vector<bool>& vector) {
  const net::Network& network = simulator.network();
  std::vector<sim::PatternWord> words(network.num_pis(), 0);
  for (std::size_t i = 0; i < network.num_pis(); ++i)
    if (vector[i]) words[i] = 1;
  simulator.simulate_word(words);
  for (net::NodeId po : network.pos())
    if (simulator.value(po) & 1u) return true;
  return false;
}

}  // namespace

CecResult check_equivalence(const net::Network& a, const net::Network& b,
                            const CecOptions& options) {
  util::Stopwatch total;
  total.start();
  CecResult result;

  Miter miter = make_miter(a, b);
  SIMGEN_DEBUG_LINT(miter.network, "cec: freshly built miter");
  sim::Simulator simulator(miter.network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(miter.network);

  if (obs::journal_enabled()) {
    std::uint64_t num_luts = 0;
    miter.network.for_each_lut([&num_luts](net::NodeId) { ++num_luts; });
    obs::journal_emit(obs::EventKind::kRunBegin, 0, miter.network.num_pis(),
                      miter.network.num_nodes(), num_luts,
                      miter.network.num_pos());
  }
  // Journals run_end on every return. Declared before the first
  // PhaseScope, so it fires after the phase being returned from has
  // journaled its phase_end. A run cut short by an exception (a failed
  // certification) journals no outcome.
  struct RunEnd {
    const CecResult& result;
    int exceptions = std::uncaught_exceptions();
    ~RunEnd() {
      if (!obs::journal_enabled() || std::uncaught_exceptions() > exceptions)
        return;
      const std::uint8_t outcome =
          result.undecided ? 2 : (result.equivalent ? 1 : 0);
      obs::journal_emit(obs::EventKind::kRunEnd, outcome, 0, 0,
                        result.outputs_proven, result.unresolved_outputs);
    }
  } run_end{result};

  // Phase 1: random simulation. Any nonzero miter output word is already
  // a counterexample — report it without touching the solver. Round r
  // simulates random word r, keyed only by (seed, pi, r).
  {
    obs::PhaseScope random_phase(obs::PhaseId::kRandomSim);
    for (std::size_t round = 0; round < options.random_rounds; ++round) {
      {
        obs::PatternScope batch(obs::PatternSource::kRandom, 0);
        simulator.simulate_random_word(options.seed, round);
        classes.refine(simulator.values());
      }
      for (net::NodeId po : miter.network.pos()) {
        const sim::PatternWord word = simulator.value(po);
        if (word != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(word));
          result.counterexample = pattern_of_bit(simulator, bit);
          result.equivalent = false;
          total.stop();
          result.total_seconds = total.seconds();
          return result;
        }
      }
    }
    random_phase.set_result(classes.cost(), classes.num_classes());
  }

  SIMGEN_DEBUG_LINT(classes, miter.network, &simulator,
                    "cec: classes after random simulation");

  // Phase 2: guided simulation splits the classes random patterns cannot.
  if (options.use_guided_simulation && !classes.fully_refined()) {
    core::GuidedSimOptions guided;
    guided.strategy = options.guided_strategy;
    guided.iterations = options.guided_iterations;
    guided.seed = options.seed;
    run_guided_simulation(simulator, classes, guided);
  }

  obs::set_gauge("cec.cost_after_guided", static_cast<double>(classes.cost()));
  SIMGEN_DEBUG_LINT(classes, miter.network, &simulator,
                    "cec: classes after guided simulation");

  // Phase 3: SAT sweeping of the internal nodes; proven equalities are
  // added as clauses and make the output proofs cheap.
  SweepOptions sweep_options = options.sweep;
  sweep_options.seed = options.seed;
  sweep_options.certify = sweep_options.certify || options.certify;
  // Stamp the configured guided-simulation arm into every cone
  // fingerprint so the SAT report can slice hardness by arm.
  sweep_options.strategy_code =
      static_cast<std::uint8_t>(options.guided_strategy);
  Sweeper sweeper(miter.network, sweep_options);
  if (options.sweep_internal_nodes)
    result.sweep_stats = sweeper.run(classes, simulator);

  // Phase 4: prove each miter output constant-0. Output proofs run under
  // their own conflict budget (output_proof_conflict_limit, unlimited by
  // default): a tight candidate-pair budget must not make the final
  // verdict undecidable, and a budgeted output proof that still times out
  // yields an "undecided" verdict instead of a crash.
  obs::PhaseScope outputs_phase(obs::PhaseId::kOutputProofs);
  sweeper.solver().set_conflict_limit(
      sweep_options.output_proof_conflict_limit);
  for (net::NodeId po : miter.network.pos()) {
    const Sweeper::SatCall call = sweeper.solve_call(po, net::kNullNode);
    ++result.output_sat_calls;
    result.output_sat_seconds += call.seconds;
    if (call.verdict == sat::Result::kSat) {
      result.counterexample =
          sweeper.last_model_vector(static_cast<std::uint64_t>(po));
      if (!violates(simulator, result.counterexample))
        throw std::logic_error("cec: SAT counterexample failed re-simulation");
      result.equivalent = false;
      result.undecided = false;
      // A counterexample decides the run: earlier budget-limited output
      // proofs are moot, and CecResult documents unresolved_outputs as
      // nonzero only when undecided.
      result.unresolved_outputs = 0;
      total.stop();
      result.total_seconds = total.seconds();
      return result;
    }
    if (call.verdict == sat::Result::kUnknown) {
      // Conflict-limited output proof: record it and keep going — a
      // later output may still yield a counterexample, and a partial
      // verdict with a proper journal run-end beats a crash.
      ++result.unresolved_outputs;
      continue;
    }
    // Certify the output proof itself: UNSAT under {po} means the logged
    // derivation must entail (~po).
    if (sweeper.certifier() != nullptr) {
      sweeper.certify_unsat({&call.assumption, 1}, po, 0,
                            /*output_proof=*/true);
      ++result.certified_outputs;
    }
    ++result.outputs_proven;
  }

  result.undecided = result.unresolved_outputs > 0;
  result.equivalent = !result.undecided;
  total.stop();
  result.total_seconds = total.seconds();
  return result;
}

}  // namespace simgen::sweep
