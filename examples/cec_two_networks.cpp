/// \file cec_two_networks.cpp
/// \brief Combinational equivalence checking of two circuit files.
///
/// Usage:
///   ./cec_two_networks [options] golden.blif revised.blif
///   ./cec_two_networks [options] alu4        (seed benchmark self-check)
///   ./cec_two_networks [options]             (self-demo, no files needed)
///
/// Options:
///   --certify            DRAT-certify every UNSAT verdict
///   --output-conflict-limit N
///                        conflict budget per final output proof
///                        (0 = unlimited, the default); a proof that
///                        hits the budget makes the verdict UNDECIDED
///                        (exit 2) instead of running forever
///   --metrics-out FILE   write the telemetry counters and gauges as JSON
///                        Lines, one metric per line
///   --journal-out FILE   record every sweeping decision (class events,
///                        SAT calls, pattern batches, certifications) to a
///                        binary journal; replay with tools/sweep_inspect
///                        (--chrome-trace renders a timeline for
///                        chrome://tracing or ui.perfetto.dev; --rewrite
///                        FILE.jsonl exports JSON Lines). A ".jsonl" FILE
///                        here is a usage error.
///   --progress SECONDS   print a heartbeat line (classes live, nodes
///                        resolved, SAT calls, ETA) on this interval
///   --timeout SECONDS    watchdog deadline: dump state, flush all
///                        telemetry outputs, exit 124
///
/// All telemetry outputs are flushed on SIGINT/SIGTERM and via atexit, so
/// an interrupted run still leaves valid, parseable files behind. Any
/// other argument starting with "--" is rejected as an unknown option.
///
/// Exit codes: 0 = checked (equivalent or a verified counterexample),
/// 1 = error (including an unknown option, and a journal that could not
/// be written completely: "error: cannot write journal file FILE"),
/// 2 = undecided (an output proof hit the conflict budget).
///
/// Accepts BLIF (.blif), BENCH (.bench), and AIGER (.aig/.aag; mapped to
/// 6-LUTs before checking), or the name of a seed benchmark — the latter
/// checks its 6-LUT mapping against the direct AIG translation. With
/// --certify, every UNSAT verdict (internal merges and the final output
/// proofs) is DRAT-logged and certified by the in-repo backward checker
/// before it is trusted. Without arguments it demonstrates both a passing
/// check (a circuit against its re-synthesized self) and a failing one
/// (against a mutated copy), printing the counterexample.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "simgen_all.hpp"
#include "util/parse_option.hpp"

using namespace simgen;

namespace {

net::Network load_network(const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  if (ends_with(".blif")) return io::read_blif_file(path);
  if (ends_with(".bench")) return io::read_bench_file(path);
  if (ends_with(".aig") || ends_with(".aag"))
    return mapping::map_to_luts(io::read_aiger_file(path));
  throw std::runtime_error("unsupported file extension: " + path);
}

/// Prints the verdict; returns the matching exit code (0 decided, 2
/// undecided).
int report(const sweep::CecResult& result, const net::Network& a) {
  if (result.undecided) {
    std::printf("UNDECIDED  (%zu of %zu output proofs hit the conflict "
                "budget; rerun with a larger "
                "output_proof_conflict_limit)\n",
                result.unresolved_outputs,
                result.unresolved_outputs + result.outputs_proven);
    return 2;
  }
  if (result.equivalent) {
    std::printf("EQUIVALENT  (%zu outputs proven, %llu sweep SAT calls, "
                "%.1f ms total)\n",
                result.outputs_proven,
                static_cast<unsigned long long>(result.sweep_stats.sat_calls),
                result.total_seconds * 1e3);
    const std::uint64_t certified =
        result.sweep_stats.certified_unsat + result.certified_outputs;
    if (certified > 0)
      std::printf("  certified: %llu UNSAT verdicts (%llu merges + %llu "
                  "output proofs) checked against the DRAT log\n",
                  static_cast<unsigned long long>(certified),
                  static_cast<unsigned long long>(
                      result.sweep_stats.certified_unsat),
                  static_cast<unsigned long long>(result.certified_outputs));
    return 0;
  }
  std::printf("NOT EQUIVALENT — counterexample (PI assignment):\n  ");
  for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
    const net::NodeId pi = a.pis()[i];
    const std::string& name = a.node(pi).name;
    std::printf("%s=%d ", name.empty() ? ("pi" + std::to_string(i)).c_str()
                                       : name.c_str(),
                result.counterexample[i] ? 1 : 0);
    if (i % 8 == 7) std::printf("\n  ");
  }
  std::printf("\n");
  return 0;
}

int self_demo(const sweep::CecOptions& options) {
  std::printf("no files given — running the built-in demonstration\n\n");
  benchgen::CircuitSpec spec;
  spec.name = "cec_demo";
  spec.num_pis = 12;
  spec.num_pos = 6;
  spec.num_gates = 300;
  const aig::Aig golden_aig = benchgen::generate_circuit(spec);

  // Passing check: the 6-LUT mapping against the direct AIG translation —
  // structurally very different, functionally identical.
  const net::Network mapped = mapping::map_to_luts(golden_aig);
  const net::Network direct = aig::to_network(golden_aig);
  std::printf("[1] mapped (%zu LUTs) vs direct (%zu LUTs): ",
              mapped.num_luts(), direct.num_luts());
  int rc = report(sweep::check_equivalence(mapped, direct, options), mapped);

  // Failing check: flip one *observable* truth-table bit in a copy — the
  // bit a PO driver produces under the all-zero input. (Flipping an
  // arbitrary bit is not enough: cut-based mapping leaves many table
  // entries at input combinations the correlated fanins can never take,
  // and a mutation there is functionally invisible.)
  sim::Simulator probe(mapped);
  probe.simulate_word(std::vector<sim::PatternWord>(mapped.num_pis(), 0));
  net::NodeId victim = net::kNullNode;
  unsigned minterm = 0;
  for (const net::NodeId po : mapped.pos()) {
    const net::NodeId driver = mapped.fanins(po)[0];
    if (!mapped.is_lut(driver)) continue;
    victim = driver;
    const auto fanins = mapped.fanins(driver);
    for (std::size_t i = 0; i < fanins.size(); ++i)
      minterm |= static_cast<unsigned>(probe.value(fanins[i]) & 1u) << i;
    break;
  }

  net::Network mutated("mutant");
  std::vector<net::NodeId> map(mapped.num_nodes());
  mapped.for_each_node([&](net::NodeId id) {
    const auto& node = mapped.node(id);
    switch (node.kind) {
      case net::NodeKind::kPi: map[id] = mutated.add_pi(node.name); break;
      case net::NodeKind::kConstant:
        map[id] = mutated.add_constant(node.constant_value);
        break;
      case net::NodeKind::kPo: map[id] = mutated.add_po(map[node.fanins[0]]); break;
      case net::NodeKind::kLut: {
        std::vector<net::NodeId> fanins;
        for (net::NodeId fanin : node.fanins) fanins.push_back(map[fanin]);
        tt::TruthTable function = node.function;
        if (id == victim) function.set_bit(minterm, !function.get_bit(minterm));
        map[id] = mutated.add_lut(fanins, function);
        break;
      }
    }
  });
  std::printf("\n[2] mapped vs single-bit mutant: ");
  const int rc2 =
      report(sweep::check_equivalence(mapped, mutated, options), mapped);
  return rc != 0 ? rc : rc2;
}

int run_files(const std::vector<std::string>& args,
              const sweep::CecOptions& options) {
  net::Network a;
  net::Network b;
  if (args.size() == 1) {
    // Single argument: a seed benchmark name. Self-check its 6-LUT
    // mapping against the direct AIG translation.
    const benchgen::CircuitSpec* spec = benchgen::find_benchmark(args[0]);
    if (spec == nullptr)
      throw std::runtime_error("unknown benchmark name: " + args[0]);
    const aig::Aig graph = benchgen::generate_circuit(*spec);
    a = mapping::map_to_luts(graph);
    b = aig::to_network(graph);
    std::printf("%s: mapped (%zu LUTs) vs direct (%zu LUTs)\n",
                args[0].c_str(), a.num_luts(), b.num_luts());
  } else {
    a = load_network(args[0]);
    b = load_network(args[1]);
    std::printf("A: %s\nB: %s\n",
                net::to_string(net::compute_stats(a)).c_str(),
                net::to_string(net::compute_stats(b)).c_str());
  }
  return report(sweep::check_equivalence(a, b, options), a);
}

}  // namespace

int main(int argc, char** argv) {
  // The shared telemetry CLI strips --metrics-out/--journal-out/
  // --progress/--timeout, wires the exit finalizer and watchdog, and
  // flushes every requested output at destruction.
  obs::TelemetryCli telemetry(argc, argv, /*usage_status=*/1);
  std::vector<std::string> args;
  sweep::CecOptions options;
  options.guided_strategy = core::Strategy::kAiDcMffc;
  options.sweep.progress_interval = telemetry.progress_interval();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--certify") == 0) {
      options.certify = true;
    } else if (std::strcmp(argv[i], "--output-conflict-limit") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "error: --output-conflict-limit expects a value\n");
        return 1;
      }
      if (!util::parse_option("--output-conflict-limit", argv[++i],
                              options.sweep.output_proof_conflict_limit))
        return 1;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // Exit 1, not 2: exit 2 means UNDECIDED. Without this check a
      // mistyped flag would be read as a file name.
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return 1;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  int rc = 0;
  try {
    if (args.empty())
      rc = self_demo(options);
    else
      rc = run_files(args, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    rc = 1;
  }
  return rc;
}
