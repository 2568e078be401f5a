/// \file simgen_fuzz.cpp
/// \brief Differential fuzzing driver: generate circuits, cross-check
/// every engine, shrink and save any disagreement.
///
/// Usage:
///   simgen_fuzz [options]                  run a fuzz campaign
///   simgen_fuzz --replay repro.blif        re-run all oracles on a repro
///   simgen_fuzz --shrink-demo              minimize an injected fault
///
/// Campaign options:
///   --seed S        base seed (default 1); equal seeds give equal runs,
///                   byte-identical verdict logs included
///   --iters N       iterations (default 100)
///   --begin-iter N  start at iteration index N (iterations are pure
///                   functions of (seed, index), so --begin-iter N
///                   --iters 1 re-runs exactly a reported iteration)
///   --seconds T     stop after T seconds of wall time (0 = no limit)
///   --arm NAME      pin one strategy arm (default: cycle through all six;
///                   names as in the paper: RevS, SI+RD, AI+RD, AI+DC,
///                   AI+DC+MFFC, AI+DC+SCOAP)
///   --all-arms      run every arm on every pair (slow, max coverage)
///   --no-certify    skip DRAT certification of UNSAT verdicts
///   --no-shrink     keep full-size repro artifacts
///   --out-dir DIR   write repro artifacts here (default: fuzz-artifacts)
///   --log FILE      also write the verdict log to FILE
///   --quiet         no per-iteration echo
///
/// Telemetry options (shared with every driver in this repo):
///   --metrics-out FILE, --journal-out FILE, --progress SECONDS,
///   --timeout SECONDS
///
/// Exit status: 0 = clean, 1 = at least one oracle mismatch (repros
/// written), 2 = usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "simgen_all.hpp"
#include "util/parse_option.hpp"

using namespace simgen;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--iters N] [--seconds T] [--arm NAME]"
               " [--all-arms]\n"
               "       [--no-certify] [--no-shrink] [--out-dir DIR]"
               " [--log FILE] [--quiet]\n"
               "       %s --replay repro.blif\n"
               "       %s --shrink-demo [--seed S]\n",
               argv0, argv0, argv0);
  return 2;
}

bool parse_arm(const std::string& name, core::Strategy* arm) {
  for (const core::Strategy candidate : core::kAllStrategies) {
    if (core::strategy_name(candidate) == name) {
      *arm = candidate;
      return true;
    }
  }
  return false;
}

int run_replay(const std::string& path, std::uint64_t seed) {
  const net::Network network = io::read_blif_file(path);
  std::printf("replaying %s (%zu nodes, %zu PIs, %zu POs)\n", path.c_str(),
              network.num_nodes(), network.num_pis(), network.num_pos());
  int failures = 0;
  for (const fuzz::OracleResult& result :
       fuzz::replay_network(network, seed)) {
    std::printf("  %-16s %s%s%s\n", result.name.c_str(),
                result.pass ? "ok" : "FAIL", result.detail.empty() ? "" : ": ",
                result.detail.c_str());
    if (!result.pass) ++failures;
  }
  if (failures == 0) {
    std::printf("all oracles agree — failure did not reproduce\n");
    return 0;
  }
  std::printf("%d oracle(s) still failing\n", failures);
  return 1;
}

int run_shrink_demo(std::uint64_t seed, const std::string& out_dir) {
  // Build a failing circuit the way the campaign would: a random network,
  // an injected fault with a verified witness, and the miter of the two.
  // The miter is nonzero exactly on the fault's counterexamples; the demo
  // shows the delta debugger boiling a hundred-node miter down to the
  // handful of nodes that realize the injected difference.
  util::Rng rng(util::splitmix64(seed));
  fuzz::GenProfile profile;
  const net::Network base =
      fuzz::random_lut_network(rng, fuzz::random_lut_options(rng, profile));
  const fuzz::Mutant fault = fuzz::inject_fault(base, rng);
  const net::Network miter = sweep::make_miter(base, fault.network).network;
  std::printf("base: %zu nodes; injected %s; miter: %zu nodes\n",
              base.num_nodes(), fault.description.c_str(), miter.num_nodes());

  const auto still_fails = [seed](const net::Network& candidate) {
    return fuzz::miter_nonzero(candidate, seed);
  };
  const fuzz::ShrinkResult shrunk = fuzz::shrink_network(miter, still_fails);
  std::printf("shrunk to %zu nodes in %zu reductions (%zu predicate "
              "calls, %zu rounds); still NEQ const-0: %s\n",
              shrunk.network.num_nodes(), shrunk.reductions,
              shrunk.predicate_calls, shrunk.rounds,
              fuzz::miter_nonzero(shrunk.network, seed) ? "yes" : "NO");
  if (!out_dir.empty()) {
    fuzz::ReproInfo info;
    info.seed = seed;
    info.oracle = "shrink-demo";
    info.detail = fault.description;
    info.shrunk_from = miter.num_nodes();
    const std::string path = fuzz::write_blif_repro(
        out_dir, "shrink_demo_seed" + std::to_string(seed), info,
        shrunk.network);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::TelemetryCli telemetry(argc, argv, /*usage_status=*/2);

  fuzz::CampaignOptions options;
  options.artifact_dir = "fuzz-artifacts";
  options.echo = stdout;
  std::string replay_path;
  std::string log_path;
  bool shrink_demo = false;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed number is a usage error, never a silent 0 (exit 2).
    const auto number = [&](const char* flag, auto& into) {
      if (!util::parse_option(flag, value(flag), into)) std::exit(2);
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      number("--seed", options.seed);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      number("--iters", options.iterations);
    } else if (std::strcmp(argv[i], "--begin-iter") == 0) {
      number("--begin-iter", options.first_iteration);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      number("--seconds", options.max_seconds);
      if (options.max_seconds > 0.0)
        options.iterations = ~std::uint64_t{0};  // run until the clock
    } else if (std::strcmp(argv[i], "--arm") == 0) {
      const char* name = value("--arm");
      if (!parse_arm(name, &options.arm)) {
        std::fprintf(stderr, "%s: unknown strategy arm '%s'\n", argv[0], name);
        return 2;
      }
      options.cycle_arms = false;
    } else if (std::strcmp(argv[i], "--all-arms") == 0) {
      options.all_arms = true;
    } else if (std::strcmp(argv[i], "--no-certify") == 0) {
      options.certify = false;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      options.shrink = false;
    } else if (std::strcmp(argv[i], "--out-dir") == 0) {
      options.artifact_dir = value("--out-dir");
    } else if (std::strcmp(argv[i], "--log") == 0) {
      log_path = value("--log");
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      options.echo = nullptr;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_path = value("--replay");
    } else if (std::strcmp(argv[i], "--shrink-demo") == 0) {
      shrink_demo = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }

  try {
    if (!replay_path.empty()) return run_replay(replay_path, options.seed);
    if (shrink_demo)
      return run_shrink_demo(options.seed, options.artifact_dir);

    const fuzz::CampaignResult result = fuzz::run_campaign(options);
    if (!log_path.empty()) {
      std::ofstream log(log_path, std::ios::binary);
      if (!log) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                     log_path.c_str());
        return 2;
      }
      log << result.verdict_log;
    }
    std::printf(
        "%llu iterations (%llu EQ pairs, %llu NEQ pairs, %llu round "
        "trips), %llu oracle checks, %llu failures%s\n",
        static_cast<unsigned long long>(result.iterations),
        static_cast<unsigned long long>(result.eq_pairs),
        static_cast<unsigned long long>(result.neq_pairs),
        static_cast<unsigned long long>(result.roundtrips),
        static_cast<unsigned long long>(result.checks),
        static_cast<unsigned long long>(result.failures),
        result.time_limited ? " (stopped by --seconds)" : "");
    for (const std::string& artifact : result.artifacts)
      std::printf("repro: %s\n", artifact.c_str());
    return result.failures == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], error.what());
    return 2;
  }
}
