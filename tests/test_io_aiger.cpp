// AIGER reader/writer tests: both formats, round trips, error handling.
#include "io/aiger.hpp"

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "util/rng.hpp"

namespace simgen::io {
namespace {

void expect_same_function(const aig::Aig& a, const aig::Aig& b, int rounds = 4) {
  ASSERT_EQ(a.num_pis(), b.num_pis());
  ASSERT_EQ(a.num_pos(), b.num_pos());
  util::Rng rng(55);
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::uint64_t> words(a.num_pis());
    for (auto& w : words) w = rng();
    ASSERT_EQ(a.simulate_words(words), b.simulate_words(words));
  }
}

aig::Aig small_graph() {
  aig::Aig graph("small");
  const aig::Lit a = graph.add_pi();
  const aig::Lit b = graph.add_pi();
  const aig::Lit c = graph.add_pi();
  graph.add_po(graph.xor2(graph.and2(a, b), c));
  graph.add_po(aig::lit_not(graph.and2(b, c)));
  return graph;
}

TEST(Aiger, AsciiHeaderAndCounts) {
  const std::string text = write_aiger_string(small_graph(), /*binary=*/false);
  EXPECT_EQ(text.rfind("aag ", 0), 0u);
  const aig::Aig reparsed = read_aiger_string(text);
  EXPECT_EQ(reparsed.num_pis(), 3u);
  EXPECT_EQ(reparsed.num_pos(), 2u);
}

TEST(Aiger, AsciiRoundTrip) {
  const aig::Aig original = small_graph();
  const aig::Aig reparsed =
      read_aiger_string(write_aiger_string(original, /*binary=*/false));
  expect_same_function(original, reparsed);
}

TEST(Aiger, BinaryRoundTrip) {
  const aig::Aig original = small_graph();
  const aig::Aig reparsed =
      read_aiger_string(write_aiger_string(original, /*binary=*/true));
  expect_same_function(original, reparsed);
}

TEST(Aiger, ConstantOutputs) {
  aig::Aig graph;
  graph.add_pi();
  graph.add_po(aig::kLitTrue);
  graph.add_po(aig::kLitFalse);
  for (bool binary : {false, true}) {
    const aig::Aig reparsed = read_aiger_string(write_aiger_string(graph, binary));
    std::vector<std::uint64_t> words{0xdeadbeefull};
    const auto out = reparsed.simulate_words(words);
    EXPECT_EQ(out[0], ~0ull);
    EXPECT_EQ(out[1], 0ull);
  }
}

TEST(Aiger, GeneratedCircuitBothFormats) {
  benchgen::CircuitSpec spec;
  spec.name = "aiger_roundtrip";
  spec.num_gates = 600;
  const aig::Aig original = benchgen::generate_circuit(spec);
  for (bool binary : {false, true}) {
    const aig::Aig reparsed =
        read_aiger_string(write_aiger_string(original, binary));
    expect_same_function(original, reparsed, 8);
  }
}

TEST(Aiger, KnownAsciiExample) {
  // Standard and-gate example from the AIGER spec.
  const aig::Aig graph = read_aiger_string("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n");
  EXPECT_EQ(graph.num_pis(), 2u);
  EXPECT_EQ(graph.num_pos(), 1u);
  EXPECT_EQ(graph.num_ands(), 1u);
  std::vector<std::uint64_t> words{0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull};
  EXPECT_EQ(graph.simulate_words(words)[0], words[0] & words[1]);
}

TEST(Aiger, Errors) {
  EXPECT_THROW(read_aiger_string("xyz 1 1 0 0 0\n"), std::runtime_error);
  // Latches rejected.
  EXPECT_THROW(read_aiger_string("aag 3 1 1 1 0\n2\n4 2\n4\n"),
               std::runtime_error);
  // Truncated and section.
  EXPECT_THROW(read_aiger_string("aag 3 2 0 1 1\n2\n4\n6\n"),
               std::runtime_error);
  // Two ANDs that read each other.
  EXPECT_THROW(read_aiger_string("aag 4 2 0 1 2\n2\n4\n6\n6 8 4\n8 2 6\n"),
               std::runtime_error);
  // Odd lhs.
  EXPECT_THROW(read_aiger_string("aag 3 2 0 1 1\n2\n4\n7\n7 2 4\n"),
               std::runtime_error);
}

// ASCII AIGER does not promise topological order: an AND may precede the
// ANDs it reads. The file must describe the same function as the ordered
// one, not read the later fanin as constant 0.
TEST(Aiger, AsciiDefinitionsInAnyOrder) {
  const aig::Aig ordered = read_aiger_string("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n");
  expect_same_function(ordered,
                       read_aiger_string("aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\n"));
  expect_same_function(
      ordered, read_aiger_string("aag 5 2 0 1 3\n2\n4\n10\n10 8 6\n8 2 4\n6 4 2\n"));
}

// A malformed AND section is a reader error, never a crash or a function
// with an undefined variable read as 0.
TEST(Aiger, RejectsMalformedAndSection) {
  const char* const bad[] = {
      "aag 3 2 0 1 1\n2\n4\n6\n1099511627776 2 4\n",  // lhs far above 2M
      "aag 3 2 0 1 1\n2\n4\n6\n8 2 4\n",              // lhs just above 2M
      "aag 3 2 0 1 1\n2\n4\n6\n4 2 2\n",              // lhs names an input
      "aag 3 2 0 1 1\n2\n4\n6\n0 2 4\n",              // lhs names the constant
      "aag 4 2 0 1 2\n2\n4\n8\n6 2 4\n6 4 2\n",       // 6 defined twice, 8 never
      "aag 3 2 0 1 1\n2\n4\n6\n6 6 4\n",              // an AND reading itself
      "aag 3 2 0 1 1\n2\n4\n6\n6 2 9\n",              // fanin literal above 2M + 1
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(read_aiger_string(text), std::runtime_error);
  }
}

TEST(Aiger, FileRoundTrip) {
  const aig::Aig original = small_graph();
  const std::string path = testing::TempDir() + "/simgen_test.aig";
  write_aiger_file(original, path, /*binary=*/true);
  const aig::Aig reparsed = read_aiger_file(path);
  expect_same_function(original, reparsed);
  EXPECT_THROW(read_aiger_file("/nonexistent/file.aig"), std::runtime_error);
}

}  // namespace
}  // namespace simgen::io
