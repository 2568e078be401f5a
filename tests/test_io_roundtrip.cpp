/// \file test_io_roundtrip.cpp
/// \brief Serializer round trips on random networks: write -> read ->
/// structural lint clean -> CEC-equivalent to the original.
///
/// Each format (BLIF, BENCH, AIGER ascii + binary) must reproduce the
/// original function exactly, not just parse back — random LUT networks
/// reach the shapes hand-written fixtures never do (unnamed canonical
/// constants, LUTs ignoring fanins, duplicate fanin references, name
/// collisions with generated fallback names), which is precisely where
/// fuzzing found the first serializer bugs (see tests/repros/).
/// The readers must also accept the definitions in any order, so one
/// test shuffles them between the write and the read.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "check/lint.hpp"
#include "fuzz/gen.hpp"
#include "io/aiger.hpp"
#include "io/bench.hpp"
#include "io/blif.hpp"
#include "network/network.hpp"
#include "sweep/cec.hpp"
#include "util/rng.hpp"

namespace simgen {
namespace {

sweep::CecOptions fast_cec() {
  sweep::CecOptions options;
  options.random_rounds = 4;
  options.use_guided_simulation = false;
  options.sweep_internal_nodes = false;
  return options;
}

void expect_equivalent(const net::Network& original,
                       const net::Network& parsed, const std::string& what) {
  const check::LintReport report = check::lint_network(parsed);
  ASSERT_FALSE(report.has_errors()) << what << ": parsed network fails lint";
  ASSERT_EQ(original.num_pis(), parsed.num_pis()) << what;
  ASSERT_EQ(original.num_pos(), parsed.num_pos()) << what;
  ASSERT_TRUE(sweep::check_equivalence(original, parsed, fast_cec()).equivalent)
      << what << ": parsed network is not equivalent to the original";
}

TEST(IoRoundtrip, BlifOnRandomLutNetworks) {
  util::Rng rng(11);
  for (int i = 0; i < 12; ++i) {
    const fuzz::LutGenOptions options =
        fuzz::random_lut_options(rng, fuzz::GenProfile{});
    const net::Network network = fuzz::random_lut_network(rng, options);
    const net::Network parsed =
        io::read_blif_string(io::write_blif_string(network));
    expect_equivalent(network, parsed, "blif #" + std::to_string(i));
  }
}

TEST(IoRoundtrip, BenchOnRandomLutNetworks) {
  util::Rng rng(12);
  for (int i = 0; i < 12; ++i) {
    const fuzz::LutGenOptions options =
        fuzz::random_lut_options(rng, fuzz::GenProfile{});
    const net::Network network = fuzz::random_lut_network(rng, options);
    const net::Network parsed =
        io::read_bench_string(io::write_bench_string(network));
    expect_equivalent(network, parsed, "bench #" + std::to_string(i));
  }
}

TEST(IoRoundtrip, AigerAsciiAndBinaryOnRandomAigs) {
  util::Rng rng(13);
  for (int i = 0; i < 8; ++i) {
    const benchgen::CircuitSpec spec =
        fuzz::random_spec(rng, fuzz::GenProfile{});
    const aig::Aig graph = benchgen::generate_circuit(spec);
    const net::Network original = aig::to_network(graph);
    for (const bool binary : {false, true}) {
      const aig::Aig parsed_graph =
          io::read_aiger_string(io::write_aiger_string(graph, binary));
      ASSERT_FALSE(check::lint_aig(parsed_graph).has_errors());
      const net::Network parsed = aig::to_network(parsed_graph);
      expect_equivalent(original, parsed,
                        std::string(binary ? "aig" : "aag") + " #" +
                            std::to_string(i));
    }
  }
}

/// \p text with its definitions in a random order. The definitions take
/// up the lines from the first one for which \p starts_definition holds
/// to \p trailer_lines before the end, and each runs up to the next line
/// that starts one. The lines before and after them keep their place.
std::string shuffle_definitions(
    const std::string& text, std::size_t trailer_lines,
    const std::function<bool(const std::string&)>& starts_definition,
    util::Rng& rng) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  const std::size_t end = lines.size() - trailer_lines;
  std::size_t begin = 0;
  while (begin < end && !starts_definition(lines[begin])) ++begin;
  std::vector<std::string> definitions;
  for (std::size_t i = begin; i < end; ++i) {
    if (i == begin || starts_definition(lines[i])) definitions.emplace_back();
    definitions.back() += lines[i];
  }
  for (std::size_t i = definitions.size(); i > 1; --i)
    std::swap(definitions[i - 1], definitions[rng.below(i)]);
  std::string shuffled;
  for (std::size_t i = 0; i < begin; ++i) shuffled += lines[i];
  for (const std::string& definition : definitions) shuffled += definition;
  for (std::size_t i = end; i < lines.size(); ++i) shuffled += lines[i];
  return shuffled;
}

// A definition may use a signal that a later one defines: the readers
// must return the written network's function whatever the order of the
// BLIF .names blocks, the BENCH gate lines and the ASCII AIGER AND lines.
TEST(IoRoundtrip, ReadersAcceptAnyDefinitionOrder) {
  util::Rng rng(15);
  int reordered = 0;
  const auto shuffle = [&](const std::string& text, std::size_t trailer_lines,
                           const std::function<bool(const std::string&)>& starts) {
    std::string shuffled = shuffle_definitions(text, trailer_lines, starts, rng);
    reordered += shuffled != text ? 1 : 0;
    return shuffled;
  };
  const auto blif_names = [](const std::string& line) {
    return line.starts_with(".names");
  };
  const auto bench_gate = [](const std::string& line) {
    return line.find(" = ") != std::string::npos;
  };
  // "lhs rhs0 rhs1"; the header also has spaces, the input and output
  // lines have none.
  const auto aiger_and = [](const std::string& line) {
    return !line.starts_with("aag") && std::count(line.begin(), line.end(), ' ') == 2;
  };
  for (int i = 0; i < 40; ++i) {
    const fuzz::LutGenOptions options =
        fuzz::random_lut_options(rng, fuzz::GenProfile{});
    const net::Network network = fuzz::random_lut_network(rng, options);
    expect_equivalent(network,
                      io::read_blif_string(shuffle(io::write_blif_string(network),
                                                   /*.end*/ 1, blif_names)),
                      "shuffled blif #" + std::to_string(i));
    expect_equivalent(network,
                      io::read_bench_string(
                          shuffle(io::write_bench_string(network), 0, bench_gate)),
                      "shuffled bench #" + std::to_string(i));
  }
  for (int i = 0; i < 20; ++i) {
    const aig::Aig graph =
        benchgen::generate_circuit(fuzz::random_spec(rng, fuzz::GenProfile{}));
    const aig::Aig parsed = io::read_aiger_string(
        shuffle(io::write_aiger_string(graph, /*binary=*/false), 0, aiger_and));
    ASSERT_FALSE(check::lint_aig(parsed).has_errors());
    expect_equivalent(aig::to_network(graph), aig::to_network(parsed),
                      "shuffled aag #" + std::to_string(i));
  }
  EXPECT_EQ(reordered, 100);
}

TEST(IoRoundtrip, MappedAigsThroughBlifAndBench) {
  util::Rng rng(14);
  for (int i = 0; i < 6; ++i) {
    const benchgen::CircuitSpec spec =
        fuzz::random_spec(rng, fuzz::GenProfile{});
    const net::Network network = benchgen::generate_mapped(spec);
    expect_equivalent(network, io::read_blif_string(io::write_blif_string(network)),
                      "mapped-blif #" + std::to_string(i));
    expect_equivalent(network,
                      io::read_bench_string(io::write_bench_string(network)),
                      "mapped-bench #" + std::to_string(i));
  }
}

// Regression (fuzz-found): the BENCH writer used to reference canonical
// constant nodes without ever defining them; both writers now emit
// CONST0()/CONST1() definitions, which must survive the round trip.
TEST(IoRoundtrip, ConstantDriversSurviveBothFormats) {
  net::Network network("consts");
  const net::NodeId pi = network.add_pi("a");
  const net::NodeId zero = network.add_constant(false);
  const net::NodeId one = network.add_constant(true);
  const net::NodeId or_fanins[] = {pi, zero};
  const net::NodeId lut = network.add_lut(or_fanins, tt::TruthTable::or_gate(2));
  network.add_po(lut, "f");
  network.add_po(one, "g");
  network.add_po(zero, "h");
  expect_equivalent(network, io::read_blif_string(io::write_blif_string(network)),
                    "const-blif");
  expect_equivalent(network,
                    io::read_bench_string(io::write_bench_string(network)),
                    "const-bench");
}

// Regression (fuzz-found): an unnamed node's fallback name "n<id>" could
// collide with an unrelated LUT explicitly named "n<id>" (the shrinker
// compacts node ids, so the reader-created unnamed constant landed on an
// id whose name an explicit signal already claimed). SignalNames must
// uniquify.
TEST(IoRoundtrip, FallbackNamesDoNotCollideWithExplicitNames) {
  net::Network network("collide");
  const net::NodeId pi = network.add_pi("pi0");
  // The constant is canonical and unnamed; its id is 1 here, and the LUT
  // below claims the name "n1" explicitly.
  const net::NodeId one = network.add_constant(true);
  const net::NodeId not_fanins[] = {pi};
  const net::NodeId lut =
      network.add_lut(not_fanins, tt::TruthTable::not_gate(), "n1");
  network.add_po(lut, "f");
  network.add_po(one, "g");
  ASSERT_EQ(one, net::NodeId{1});
  expect_equivalent(network, io::read_blif_string(io::write_blif_string(network)),
                    "collide-blif");
  expect_equivalent(network,
                    io::read_bench_string(io::write_bench_string(network)),
                    "collide-bench");
}

}  // namespace
}  // namespace simgen
