#include "fuzz/campaign.hpp"

#include <exception>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "fuzz/artifact.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/shrink.hpp"
#include "mapping/lut_mapper.hpp"
#include "obs/metrics.hpp"
#include "sweep/cec.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace simgen::fuzz {

namespace {

/// Campaign-wide telemetry; visible in --metrics-out dumps next to the
/// engine counters (eq.*, sat.*) the campaign exercises.
struct CampaignCounters {
  obs::Counter iterations{"fuzz.iterations"};
  obs::Counter checks{"fuzz.checks"};
  obs::Counter failures{"fuzz.failures"};
  obs::Counter artifacts{"fuzz.artifacts"};
  obs::Counter shrink_reductions{"fuzz.shrink.reductions"};
};

std::string interface_summary(const net::Network& network) {
  return "pis " + std::to_string(network.num_pis()) + " pos " +
         std::to_string(network.num_pos()) + " nodes " +
         std::to_string(network.num_nodes());
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignResult result;
  CampaignCounters counters;
  util::Stopwatch timer;
  timer.start();

  const std::uint64_t end_iteration =
      options.first_iteration + options.iterations < options.first_iteration
          ? ~std::uint64_t{0}  // saturate instead of wrapping
          : options.first_iteration + options.iterations;
  for (std::uint64_t iter = options.first_iteration; iter < end_iteration;
       ++iter) {
    if (options.max_seconds > 0.0 && timer.seconds() > options.max_seconds) {
      result.time_limited = true;
      break;
    }
    ++result.iterations;
    counters.iterations.inc();

    // Every iteration is a pure function of (seed, iter): its RNG stream
    // and the engines' internal seeds both derive from this split, so a
    // re-run reproduces it without replaying earlier iterations.
    const std::uint64_t iter_seed =
        util::splitmix64(options.seed) ^ util::splitmix64(iter + 1);
    util::Rng rng(iter_seed);
    const core::Strategy arm =
        options.cycle_arms
            ? core::kAllStrategies[iter % std::size(core::kAllStrategies)]
            : options.arm;

    std::string line = "iter " + std::to_string(iter) + " arm " +
                       std::string(core::strategy_name(arm));

    /// Writes repro artifacts (full + shrunk) for a failing network.
    const auto write_artifacts = [&](const OracleResult& failure,
                                     const net::Network& network,
                                     const ShrinkPredicate& still_fails) {
      if (options.artifact_dir.empty()) return;
      ReproInfo info;
      info.seed = options.seed;
      info.iteration = iter;
      info.oracle = failure.name;
      info.detail = failure.detail;
      const std::string stem = "seed" + std::to_string(options.seed) +
                               "_iter" + std::to_string(iter) + "_" +
                               sanitize_stem(failure.name);
      result.artifacts.push_back(
          write_blif_repro(options.artifact_dir, stem, info, network));
      counters.artifacts.inc();
      if (options.shrink && still_fails && still_fails(network)) {
        const ShrinkResult shrunk = shrink_network(network, still_fails);
        counters.shrink_reductions.inc(shrunk.reductions);
        ReproInfo shrunk_info = info;
        shrunk_info.shrunk_from = network.num_nodes();
        result.artifacts.push_back(write_blif_repro(
            options.artifact_dir, stem + "_shrunk", shrunk_info,
            shrunk.network));
        counters.artifacts.inc();
      }
    };

    /// Scores one oracle result into the log/counters; \p on_fail runs
    /// artifact writing for mismatches.
    const auto record = [&](const OracleResult& oracle,
                            const std::function<void()>& on_fail) {
      ++result.checks;
      counters.checks.inc();
      line += " " + oracle.name;
      if (oracle.pass) {
        line += "=ok";
      } else {
        line += "=FAIL(" + oracle.detail + ")";
        ++result.failures;
        counters.failures.inc();
        if (on_fail) on_fail();
      }
    };

    try {
      // 1. Base circuit: benchgen AIG (mapped or direct) or raw LUT net.
      net::Network base;
      std::optional<aig::Aig> graph;
      if (rng.chance(0.5)) {
        const benchgen::CircuitSpec spec =
            random_spec(rng, options.profile);
        graph = benchgen::generate_circuit(spec);
        if (rng.flip()) {
          base = mapping::map_to_luts(*graph);
          line += " base mapped-aig ";
        } else {
          base = aig::to_network(*graph);
          line += " base direct-aig ";
        }
      } else {
        base = random_lut_network(rng, random_lut_options(rng, options.profile));
        line += " base lut ";
      }
      line += interface_summary(base) + " |";

      // 2. Serializer round trips.
      std::vector<OracleResult> roundtrips =
          check_roundtrips(base, iter_seed);
      if (graph) {
        std::vector<OracleResult> aiger =
            check_aiger_roundtrips(*graph, iter_seed);
        roundtrips.insert(roundtrips.end(),
                          std::make_move_iterator(aiger.begin()),
                          std::make_move_iterator(aiger.end()));
      }
      result.roundtrips += roundtrips.size();
      for (const OracleResult& oracle : roundtrips) {
        record(oracle, [&] {
          if (oracle.name == "rt-aag" || oracle.name == "rt-aig") {
            // AIG-level failure: dump the AIG itself; network-level
            // shrinking does not apply.
            if (!options.artifact_dir.empty()) {
              ReproInfo info;
              info.seed = options.seed;
              info.iteration = iter;
              info.oracle = oracle.name;
              info.detail = oracle.detail;
              result.artifacts.push_back(write_aag_repro(
                  options.artifact_dir,
                  "seed" + std::to_string(options.seed) + "_iter" +
                      std::to_string(iter) + "_" +
                      sanitize_stem(oracle.name),
                  info, *graph));
              counters.artifacts.inc();
            }
            return;
          }
          write_artifacts(oracle, base,
                          [&, name = oracle.name](const net::Network& cand) {
                            return roundtrip_fails(name, cand, iter_seed);
                          });
        });
      }

      // 3. Mutant pairs with known ground truth.
      PairOracleOptions pair_options;
      pair_options.seed = iter_seed;
      pair_options.all_arms = options.all_arms;
      pair_options.arm = arm;
      pair_options.certify = options.certify;

      const auto check_mutant = [&](const Mutant& mutant,
                                    const char* tag) {
        line += std::string(" | ") + tag + "[" + mutant.description + "]";
        for (const OracleResult& oracle :
             check_pair(base, mutant, pair_options)) {
          record(oracle, [&] {
            // Re-express the pair disagreement as a single-network
            // property ("engine is wrong about miter-vs-0") so the
            // delta debugger can minimize it.
            const net::Network miter =
                sweep::make_miter(base, mutant.network).network;
            ShrinkPredicate predicate;
            if (oracle.name != "witness")
              predicate = [&, name = oracle.name](const net::Network& cand) {
                return oracle_disagrees(name, cand, iter_seed);
              };
            write_artifacts(oracle, miter, predicate);
          });
        }
      };

      Mutant equivalent = rewrite_equivalent(
          base, rng, 1 + static_cast<unsigned>(rng.below(3)));
      ++result.eq_pairs;
      check_mutant(equivalent, "eq");

      Mutant faulty = inject_fault(base, rng);
      ++result.neq_pairs;
      check_mutant(faulty, "neq");
    } catch (const std::exception& error) {
      // A throwing generator/harness step is itself a fuzz finding.
      line += std::string(" harness=FAIL(exception: ") + error.what() + ")";
      ++result.failures;
      counters.failures.inc();
    }

    result.verdict_log += line + "\n";
    if (options.echo != nullptr) {
      std::fputs((line + "\n").c_str(), options.echo);
      std::fflush(options.echo);
    }
  }
  return result;
}

std::vector<OracleResult> replay_network(const net::Network& network,
                                         std::uint64_t seed) {
  std::vector<OracleResult> results;
  std::vector<std::string> engines;
  for (const core::Strategy arm : core::kAllStrategies)
    engines.push_back("cec[" + std::string(core::strategy_name(arm)) + "]");
  engines.emplace_back("sat-miter");
  engines.emplace_back("bdd");
  for (const std::string& engine : engines) {
    OracleResult result;
    result.name = engine;
    result.pass = !oracle_disagrees(engine, network, seed);
    if (!result.pass)
      result.detail =
          "verdict disagrees with the trusted reference on miter-vs-const0";
    results.push_back(std::move(result));
  }
  for (OracleResult& roundtrip : check_roundtrips(network, seed))
    results.push_back(std::move(roundtrip));
  // Pair leg: check the network against its const-0 reference as a
  // mutant pair, so the witness self-check and every pair oracle run on
  // it. Committed repro artifacts that stress counterexample
  // resimulation (many disproven pairs per sweep) regress here.
  {
    Mutant const0;
    const0.network = const0_reference(network);
    const0.equivalent = false;
    const0.witness.assign(network.num_pis(), false);
    const0.description = "miter-vs-const0";
    PairOracleOptions pair_options;
    pair_options.seed = seed;
    // The artifact may genuinely be constant 0 (an EQ repro); probe the
    // ground truth with the trusted miter first.
    const0.equivalent = !miter_nonzero(network, seed);
    if (!const0.equivalent) {
      // Find a real witness by simulation so the ground-truth self-check
      // passes; fall back to skipping the leg if none surfaces quickly.
      bool found = false;
      for (std::uint64_t pattern = 0; pattern < 256 && !found; ++pattern) {
        std::vector<bool> inputs(network.num_pis());
        for (std::size_t i = 0; i < inputs.size(); ++i)
          inputs[i] = (util::splitmix64(pattern * 131 + i) & 1u) != 0;
        if (counterexample_valid(network, const0.network, inputs)) {
          const0.witness = std::move(inputs);
          found = true;
        }
      }
      if (!found) return results;
    }
    for (OracleResult& oracle : check_pair(network, const0, pair_options))
      results.push_back(std::move(oracle));
  }
  return results;
}

}  // namespace simgen::fuzz
