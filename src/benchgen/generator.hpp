/// \file generator.hpp
/// \brief Deterministic synthetic circuit generation with injected
/// functional redundancy.
///
/// The VTR / EPFL / ITC'99 benchmark files the paper evaluates on are not
/// redistributable inside this repository, so the suite is reproduced by
/// construction: each named benchmark maps to a seeded generator spec
/// whose interface size and structural style follow the original circuit.
/// Two properties matter for the experiments and are engineered in:
///
///  1. Genuine internal equivalences. With probability `redundancy`, a new
///     node is a structurally different re-expression of an existing node
///     (absorption laws, xor-masking, mux duplication, Shannon expansion)
///     that structural hashing cannot collapse — SAT sweeping must prove
///     these, exactly like the redundancies real synthesis flows leave.
///
///  2. Random-resistant classes. Wide AND/OR macro gates create deeply
///     biased signals that uniform random simulation almost never toggles,
///     so distinct nodes share signatures for many rounds — the local
///     minimum of paper Figure 7 that guided simulation (RevS / SimGen)
///     exists to escape.
///
///  3. Near-miss decoys. With probability `near_miss`, a new node is a
///     copy of an existing signal perturbed only on a rare input cube
///     (f | AND(7..9 literals) or f & !AND(...)). The pair is NOT
///     equivalent, but uniform random patterns almost never hit the
///     separating cube, so the pair survives random refinement and — if
///     simulation cannot split it — costs a full SAT disproof. Guided
///     simulation can justify the rare cube directly; every decoy it
///     splits is a SAT call saved, which is precisely the effect the
///     paper's Tables 1-2 measure.
#pragma once

#include <cstdint>
#include <string>

#include "aig/aig.hpp"
#include "mapping/lut_mapper.hpp"
#include "network/network.hpp"

namespace simgen::benchgen {

/// Structural flavour of a generated circuit.
enum class CircuitStyle : std::uint8_t {
  kControl,     ///< mux/and-or dominated, moderate depth (ITC'99-like).
  kArithmetic,  ///< xor/maj dominated, deep (EPFL arithmetic-like).
  kRandomLogic, ///< wide-cube two-level flavour (MCNC PLA-like).
};

/// Recipe for one synthetic benchmark.
struct CircuitSpec {
  std::string name;
  unsigned num_pis = 16;
  unsigned num_pos = 8;
  unsigned num_gates = 500;    ///< Target AND-node count before mapping.
  CircuitStyle style = CircuitStyle::kControl;
  double redundancy = 0.06;    ///< Fraction of redundant re-expressions.
  double near_miss = 0.05;     ///< Fraction of near-miss decoy nodes.
  std::uint64_t seed = 0;      ///< 0 = derive from name.
};

/// Generates the AIG for \p spec. Deterministic: equal specs (including
/// seed derivation from the name) produce identical graphs.
[[nodiscard]] aig::Aig generate_circuit(const CircuitSpec& spec);

/// Convenience: generate and LUT-map in one step, mirroring the paper's
/// "if -K 6" preprocessing.
[[nodiscard]] net::Network generate_mapped(const CircuitSpec& spec);

}  // namespace simgen::benchgen
