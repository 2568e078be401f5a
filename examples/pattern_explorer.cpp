/// \file pattern_explorer.cpp
/// \brief Didactic walk-through of SimGen's machinery on the paper's own
/// examples: Figure 1 (implication rescues reverse simulation), the
/// advanced-implication idea of Section 4, and the DC/MFFC decision
/// heuristics of Section 5, with every propagation step printed.
///
/// Run:  ./pattern_explorer
#include <array>
#include <cstdio>

#include "simgen_all.hpp"

using namespace simgen;
using core::TVal;

namespace {

void print_values(const core::NodeValues& values,
                  std::span<const net::NodeId> nodes,
                  std::span<const char* const> names) {
  std::printf("    ");
  for (std::size_t i = 0; i < nodes.size(); ++i)
    std::printf("%s=%c ", names[i], core::tval_char(values.get(nodes[i])));
  std::printf("\n");
}

void figure1_demo() {
  std::printf("== Paper Figure 1: z = AND(x, y), x = A & !B, y = NAND(!B, C) ==\n\n");
  net::Network network;
  const net::NodeId A = network.add_pi("A");
  const net::NodeId B = network.add_pi("B");
  const net::NodeId C = network.add_pi("C");
  const std::array<net::NodeId, 1> finv{B};
  const net::NodeId inv = network.add_lut(finv, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 2> fx{A, B};
  const net::NodeId x = network.add_lut(
      fx, tt::TruthTable::projection(2, 0) & ~tt::TruthTable::projection(2, 1));
  const std::array<net::NodeId, 2> fy{inv, C};
  const net::NodeId y = network.add_lut(fy, tt::TruthTable::nand_gate(2));
  const std::array<net::NodeId, 2> fz{x, y};
  const net::NodeId z = network.add_lut(fz, tt::TruthTable::and_gate(2));
  network.add_po(z, "D");

  const std::array<net::NodeId, 7> nodes{A, B, C, inv, x, y, z};
  constexpr std::array<const char*, 7> names{"A", "B", "C", "inv", "x", "y", "z"};

  // Reverse simulation can guess the NAND row (0,0), which forces B=1 and
  // collides with x's requirement B=0 (Figure 1a).
  std::printf("reverse simulation, 12 attempts at driving z to 1:\n");
  core::ReverseSimulator reverse(network, 11);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const auto result = reverse.generate({z, true}, {z, true});
    std::printf("  attempt %2d: %s\n", attempt + 1,
                result.success ? "success" : "collision at input B");
  }
  std::printf("  -> %llu/%llu attempts conflicted (the Figure 1a failure)\n\n",
              static_cast<unsigned long long>(reverse.stats().conflicts.value()),
              static_cast<unsigned long long>(reverse.stats().attempts.value()));

  // SimGen's implication resolves the same problem deterministically
  // (Figure 1c): B=0 implies inv=1 forward, which forces C=0 backward.
  std::printf("SimGen implication from z=1 (deterministic, Figure 1c):\n");
  const core::RowDatabase rows(network);
  core::NodeValues values(network.num_nodes());
  values.assign(z, TVal::kOne);
  print_values(values, nodes, names);
  const auto outcome = core::run_implications(
      network, rows, values, z, core::ImplicationStrategy::kSimple);
  print_values(values, nodes, names);
  std::printf("  -> %zu values implied, conflict=%s; the vector A=1 B=0 C=0 "
              "guarantees D=1\n\n",
              outcome.assignments, outcome.conflict ? "yes" : "no");
}

void advanced_implication_demo() {
  std::printf("== Section 4: advanced implication on majority(a, b, c) ==\n\n");
  net::Network network;
  const net::NodeId a = network.add_pi("a");
  const net::NodeId b = network.add_pi("b");
  const net::NodeId c = network.add_pi("c");
  const std::array<net::NodeId, 3> fm{a, b, c};
  const net::NodeId m = network.add_lut(fm, tt::TruthTable::majority3());
  network.add_po(m);

  const core::RowDatabase rows(network);
  std::printf("rows of majority(a,b,c):\n");
  for (const core::Row& row : rows.rows(m))
    std::printf("    %s -> %d\n", row.cube.to_string(3).c_str(), row.output ? 1 : 0);

  std::printf("\nassign a=1, b=1. Three ON rows match; no single row does.\n");
  for (const auto strategy : {core::ImplicationStrategy::kSimple,
                              core::ImplicationStrategy::kAdvanced}) {
    core::NodeValues values(network.num_nodes());
    values.assign(a, TVal::kOne);
    values.assign(b, TVal::kOne);
    core::run_implications(network, rows, values, a, strategy);
    std::printf("  %s implication: m=%c, c=%c\n",
                strategy == core::ImplicationStrategy::kSimple ? "simple  "
                                                               : "advanced",
                core::tval_char(values.get(m)), core::tval_char(values.get(c)));
  }
  std::printf("  -> only advanced implication deduces m=1 while leaving c "
              "free (Definition 4.1)\n\n");
}

void decision_demo() {
  std::printf("== Section 5: DC and MFFC decision heuristics ==\n\n");
  // f = (a & b) | c: ON rows {--1} (2 DCs) and {11-} (1 DC).
  net::Network network;
  const net::NodeId a = network.add_pi("a");
  const net::NodeId b = network.add_pi("b");
  const net::NodeId c = network.add_pi("c");
  const std::array<net::NodeId, 3> fg{a, b, c};
  const auto table =
      (tt::TruthTable::projection(3, 0) & tt::TruthTable::projection(3, 1)) |
      tt::TruthTable::projection(3, 2);
  const net::NodeId g = network.add_lut(fg, table, "g");
  network.add_po(g);

  const core::RowDatabase rows(network);
  const net::MffcDepthCache mffc(network);
  util::Rng rng(5);
  std::printf("decide g=1 200 times with each policy; which row wins?\n");
  for (const auto strategy :
       {core::DecisionStrategy::kRandom, core::DecisionStrategy::kDontCare}) {
    int chose_c_row = 0;
    for (int trial = 0; trial < 200; ++trial) {
      core::NodeValues values(network.num_nodes());
      values.assign(g, TVal::kOne);
      core::decide(network, rows, values, g, strategy, &mffc, rng);
      if (values.is_assigned(c) && !values.is_assigned(a)) ++chose_c_row;
    }
    std::printf("  %-8s: row {--1} chosen %3d/200, row {11-} %3d/200\n",
                strategy == core::DecisionStrategy::kRandom ? "random" : "DC",
                chose_c_row, 200 - chose_c_row);
  }
  std::printf("  -> the DC heuristic prefers the row that pins fewer inputs "
              "(Equation 1),\n     leaving a and b free for later targets.\n\n");
}

}  // namespace

int main() {
  figure1_demo();
  advanced_implication_demo();
  decision_demo();
  std::printf("See examples/sweep_flow.cpp for these pieces assembled into "
              "the full Figure 2 flow.\n");
  return 0;
}
