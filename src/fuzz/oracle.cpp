#include "fuzz/oracle.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "aig/aig_to_network.hpp"
#include "bdd/network_bdd.hpp"
#include "check/lint.hpp"
#include "io/aiger.hpp"
#include "io/bench.hpp"
#include "io/blif.hpp"
#include "sim/pattern_block.hpp"
#include "sim/simulator.hpp"
#include "sweep/cec.hpp"

namespace simgen::fuzz {

namespace {

using net::Network;

/// Full sweeping options for one strategy arm.
sweep::CecOptions arm_options(core::Strategy arm, std::uint64_t seed,
                              bool certify) {
  sweep::CecOptions options;
  options.seed = seed;
  options.guided_strategy = arm;
  options.certify = certify;
  return options;
}

/// Plain SAT miter: no simulation prepass, no guidance, no internal
/// sweeping — every output goes to the solver monolithically. The
/// baseline the sweeping flow must agree with.
sweep::CecOptions sat_miter_options(std::uint64_t seed, bool certify) {
  sweep::CecOptions options;
  options.seed = seed;
  options.random_rounds = 0;
  options.use_guided_simulation = false;
  options.sweep_internal_nodes = false;
  options.certify = certify;
  return options;
}

/// Cheap CEC used to compare a parsed round-trip result with its source.
sweep::CecOptions roundtrip_cec_options(std::uint64_t seed) {
  sweep::CecOptions options;
  options.seed = seed;
  options.random_rounds = 4;
  options.use_guided_simulation = false;
  options.sweep_internal_nodes = false;
  return options;
}

/// Three-way rendering of a CEC verdict for oracle failure details:
/// undecided must not masquerade as NEQ or it misdirects triage.
const char* verdict_str(const sweep::CecResult& verdict) {
  if (verdict.undecided) return "UNDECIDED";
  return verdict.equivalent ? "EQ" : "NEQ";
}

/// Runs one sweeping-engine oracle on the pair and scores it against the
/// expected verdict. With \p cross_check_kernels the check is rerun
/// under every available SIMD kernel at block widths 1 and 8, and the
/// rerun CecResult must be byte-identical to the default run's.
OracleResult run_cec_oracle(std::string name, const Network& base,
                            const Mutant& mutant,
                            const sweep::CecOptions& options,
                            bool cross_check_kernels = false) {
  OracleResult result;
  result.name = std::move(name);
  try {
    const sweep::CecResult verdict =
        sweep::check_equivalence(base, mutant.network, options);
    if (verdict.equivalent != mutant.equivalent) {
      result.pass = false;
      result.detail = std::string("verdict ") + verdict_str(verdict) +
                      ", expected " + (mutant.equivalent ? "EQ" : "NEQ") +
                      " [" + mutant.description + "]";
      return result;
    }
    if (!verdict.equivalent &&
        !counterexample_valid(base, mutant.network, verdict.counterexample)) {
      result.pass = false;
      result.detail = "counterexample does not simulate to a difference";
      return result;
    }
    if (cross_check_kernels) {
      // Width-sweep oracle: the whole CecResult must be a function of the
      // seed alone, never of the kernel ISA or the block width, so every
      // rerun is compared byte-for-byte — counterexample bits and all
      // sweep counts included, not just the EQ/NEQ verdict.
      for (const sim::SimKernel kernel :
           {sim::SimKernel::kScalar, sim::SimKernel::kAvx2,
            sim::SimKernel::kAvx512}) {
        if (!sim::sim_kernel_available(kernel)) continue;
        for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
          const sim::ScopedSimConfig scoped(kernel, width);
          const sweep::CecResult swept =
              sweep::check_equivalence(base, mutant.network, options);
          const bool identical =
              swept.equivalent == verdict.equivalent &&
              swept.undecided == verdict.undecided &&
              swept.counterexample == verdict.counterexample &&
              swept.outputs_proven == verdict.outputs_proven &&
              swept.unresolved_outputs == verdict.unresolved_outputs &&
              swept.sweep_stats.sat_calls == verdict.sweep_stats.sat_calls &&
              swept.sweep_stats.proven_equivalent ==
                  verdict.sweep_stats.proven_equivalent &&
              swept.sweep_stats.disproven == verdict.sweep_stats.disproven &&
              swept.sweep_stats.unresolved == verdict.sweep_stats.unresolved &&
              swept.sweep_stats.resimulations ==
                  verdict.sweep_stats.resimulations &&
              swept.sweep_stats.proven_pairs ==
                  verdict.sweep_stats.proven_pairs;
          if (!identical) {
            result.pass = false;
            result.detail = std::string("kernel ") +
                            std::string(sim::sim_kernel_name(kernel)) +
                            " width " + std::to_string(width) + " verdict " +
                            verdict_str(swept) +
                            " not byte-identical to default run " +
                            verdict_str(verdict) + " [" + mutant.description +
                            "]";
            return result;
          }
        }
      }
    }
    result.pass = true;
  } catch (const std::exception& error) {
    result.pass = false;
    result.detail = std::string("exception: ") + error.what();
  }
  return result;
}

/// Round-trip scoring shared by every format: lint the parsed network,
/// then CEC it against the original.
OracleResult score_roundtrip(std::string name, const Network& original,
                             const Network& parsed, std::uint64_t seed) {
  OracleResult result;
  result.name = std::move(name);
  try {
    const check::LintReport lint = check::lint_network(parsed);
    if (lint.has_errors()) {
      result.pass = false;
      result.detail = "parsed network fails lint: " + lint.to_string();
      return result;
    }
    const sweep::CecResult verdict = sweep::check_equivalence(
        original, parsed, roundtrip_cec_options(seed));
    if (!verdict.equivalent) {
      result.pass = false;
      result.detail = "parsed network not equivalent to original";
      return result;
    }
    result.pass = true;
  } catch (const std::exception& error) {
    result.pass = false;
    result.detail = std::string("exception: ") + error.what();
  }
  return result;
}

enum class Verdict { kEq, kNeq, kError };

/// Named-engine verdict on (a, b); exceptions map to kError so the
/// shrinker can also preserve "this input makes the engine throw".
Verdict engine_verdict(const std::string& oracle_name, const Network& a,
                       const Network& b, std::uint64_t seed) {
  try {
    if (oracle_name == "bdd") {
      const bdd::BddCecResult verdict = bdd::bdd_check_equivalence(a, b);
      if (!verdict.completed) return Verdict::kError;
      return verdict.equivalent ? Verdict::kEq : Verdict::kNeq;
    }
    sweep::CecOptions options;
    if (oracle_name == "sat-miter") {
      // Certify here too: a disagreement that only manifests as a failed
      // DRAT certification must survive replay and shrinking.
      options = sat_miter_options(seed, /*certify=*/true);
    } else if (oracle_name.rfind("cec[", 0) == 0 &&
               oracle_name.back() == ']') {
      const std::string arm_name =
          oracle_name.substr(4, oracle_name.size() - 5);
      bool found = false;
      for (const core::Strategy arm : core::kAllStrategies) {
        if (core::strategy_name(arm) == arm_name) {
          options = arm_options(arm, seed, /*certify=*/true);
          found = true;
          break;
        }
      }
      if (!found) return Verdict::kError;
    } else {
      return Verdict::kError;
    }
    return sweep::check_equivalence(a, b, options).equivalent ? Verdict::kEq
                                                              : Verdict::kNeq;
  } catch (const std::exception&) {
    return Verdict::kError;
  }
}

}  // namespace

std::vector<bool> simulate_outputs(const Network& network,
                                   const std::vector<bool>& inputs) {
  if (inputs.size() != network.num_pis())
    throw std::invalid_argument("simulate_outputs: wrong input vector size");
  sim::Simulator simulator(network);
  std::vector<sim::PatternWord> words(network.num_pis());
  for (std::size_t i = 0; i < words.size(); ++i)
    words[i] = inputs[i] ? 1u : 0u;
  simulator.simulate_word(words);
  std::vector<bool> outputs;
  outputs.reserve(network.num_pos());
  for (const net::NodeId po : network.pos())
    outputs.push_back(simulator.value_bit(po, 0));
  return outputs;
}

bool counterexample_valid(const Network& a, const Network& b,
                          const std::vector<bool>& inputs) {
  if (inputs.size() != a.num_pis() || a.num_pis() != b.num_pis()) return false;
  return simulate_outputs(a, inputs) != simulate_outputs(b, inputs);
}

std::vector<OracleResult> check_pair(const Network& base,
                                     const Mutant& mutant,
                                     const PairOracleOptions& options) {
  std::vector<OracleResult> results;

  // Ground-truth self-check first: an NEQ mutant must carry a witness
  // that actually distinguishes the pair — otherwise the harness itself
  // is broken and every downstream verdict is noise.
  if (!mutant.equivalent) {
    OracleResult witness;
    witness.name = "witness";
    witness.pass = counterexample_valid(base, mutant.network, mutant.witness);
    if (!witness.pass)
      witness.detail = "stored witness does not distinguish the pair [" +
                       mutant.description + "]";
    results.push_back(std::move(witness));
  }

  // Sweeping-flow arms.
  if (options.all_arms) {
    for (const core::Strategy arm : core::kAllStrategies)
      results.push_back(run_cec_oracle(
          "cec[" + std::string(core::strategy_name(arm)) + "]", base, mutant,
          arm_options(arm, options.seed, options.certify),
          options.kernel_sweep));
  } else {
    results.push_back(run_cec_oracle(
        "cec[" + std::string(core::strategy_name(options.arm)) + "]", base,
        mutant, arm_options(options.arm, options.seed, options.certify),
        options.kernel_sweep));
  }

  // Plain SAT miter.
  results.push_back(run_cec_oracle(
      "sat-miter", base, mutant,
      sat_miter_options(options.seed, options.certify),
      options.kernel_sweep));

  // BDD engine. Node-limit blow-up is a pass (the engine is *allowed* to
  // give up), but a completed wrong verdict is a mismatch.
  {
    OracleResult result;
    result.name = "bdd";
    try {
      const bdd::BddCecResult verdict = bdd::bdd_check_equivalence(
          base, mutant.network, options.bdd_node_limit);
      if (!verdict.completed) {
        result.pass = true;
        result.detail = "incomplete";
      } else if (verdict.equivalent != mutant.equivalent) {
        result.pass = false;
        result.detail = std::string("verdict ") +
                        (verdict.equivalent ? "EQ" : "NEQ") + ", expected " +
                        (mutant.equivalent ? "EQ" : "NEQ") + " [" +
                        mutant.description + "]";
      } else if (!verdict.equivalent &&
                 !counterexample_valid(base, mutant.network,
                                       verdict.counterexample)) {
        result.pass = false;
        result.detail = "BDD counterexample does not simulate";
      } else {
        result.pass = true;
      }
    } catch (const std::exception& error) {
      result.pass = false;
      result.detail = std::string("exception: ") + error.what();
    }
    results.push_back(std::move(result));
  }

  return results;
}

std::vector<OracleResult> check_roundtrips(const Network& network,
                                           std::uint64_t seed) {
  std::vector<OracleResult> results;
  {
    OracleResult result;
    try {
      const Network parsed =
          io::read_blif_string(io::write_blif_string(network));
      result = score_roundtrip("rt-blif", network, parsed, seed);
    } catch (const std::exception& error) {
      result.name = "rt-blif";
      result.pass = false;
      result.detail = std::string("exception: ") + error.what();
    }
    results.push_back(std::move(result));
  }
  {
    OracleResult result;
    try {
      const Network parsed =
          io::read_bench_string(io::write_bench_string(network));
      result = score_roundtrip("rt-bench", network, parsed, seed);
    } catch (const std::exception& error) {
      result.name = "rt-bench";
      result.pass = false;
      result.detail = std::string("exception: ") + error.what();
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<OracleResult> check_aiger_roundtrips(const aig::Aig& graph,
                                                 std::uint64_t seed) {
  const Network reference = aig::to_network(graph);
  std::vector<OracleResult> results;
  for (const bool binary : {false, true}) {
    const char* name = binary ? "rt-aig" : "rt-aag";
    OracleResult result;
    try {
      const aig::Aig parsed =
          io::read_aiger_string(io::write_aiger_string(graph, binary));
      result =
          score_roundtrip(name, reference, aig::to_network(parsed), seed);
    } catch (const std::exception& error) {
      result.name = name;
      result.pass = false;
      result.detail = std::string("exception: ") + error.what();
    }
    results.push_back(std::move(result));
  }
  return results;
}

Network const0_reference(const Network& like) {
  Network reference(like.name() + "_const0");
  for (const net::NodeId pi : like.pis())
    reference.add_pi(like.node(pi).name);
  const net::NodeId zero = reference.add_constant(false);
  for (const net::NodeId po : like.pos())
    reference.add_po(zero, like.node(po).name);
  return reference;
}

bool oracle_disagrees(const std::string& oracle_name, const Network& network,
                      std::uint64_t seed) {
  const Network zero = const0_reference(network);
  const Verdict suspect = engine_verdict(oracle_name, network, zero, seed);
  // Trusted reference: BDD when it completes (canonical), otherwise the
  // plain SAT miter — and the other way around when the suspect is one of
  // the reference engines itself.
  Verdict reference;
  if (oracle_name == "bdd") {
    reference = engine_verdict("sat-miter", network, zero, seed);
  } else {
    reference = engine_verdict("bdd", network, zero, seed);
    if (reference == Verdict::kError)
      reference = engine_verdict(
          oracle_name == "sat-miter" ? "cec[AI+DC+MFFC]" : "sat-miter",
          network, zero, seed);
  }
  if (reference == Verdict::kError) return false;  // no trusted baseline
  return suspect != reference;
}

bool miter_nonzero(const Network& network, std::uint64_t seed) {
  return engine_verdict("sat-miter", network, const0_reference(network),
                        seed) == Verdict::kNeq;
}

bool roundtrip_fails(const std::string& name, const Network& network,
                     std::uint64_t seed) {
  for (const OracleResult& result : check_roundtrips(network, seed))
    if (result.name == name) return !result.pass;
  return false;
}

}  // namespace simgen::fuzz
