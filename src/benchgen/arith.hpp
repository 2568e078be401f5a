/// \file arith.hpp
/// \brief Structured arithmetic circuit builders.
///
/// Real adders, multipliers, and comparators with known functional
/// specifications. They complement the randomized suite in two roles:
/// as ground-truth circuits for tests (the AIG must compute word
/// arithmetic exactly), and as natural CEC workloads — two structurally
/// different implementations of the same arithmetic function are the
/// textbook equivalence-checking problem (see bench/ablation_bdd_vs_sat.cpp).
#pragma once

#include <cstdint>

#include "aig/aig.hpp"

namespace simgen::benchgen {

/// Ripple-carry adder: PIs a[0..width-1], b[0..width-1], cin; POs
/// sum[0..width-1], cout.
[[nodiscard]] aig::Aig build_ripple_carry_adder(unsigned width);

/// Carry-select adder over \p width bits (blocks of \p block_width,
/// each upper block computed for both carry values and selected).
/// Structurally very different from ripple-carry, functionally equal —
/// the intended CEC counterpart. Same interface as the ripple adder.
[[nodiscard]] aig::Aig build_carry_select_adder(unsigned width,
                                                unsigned block_width = 3);

/// Array multiplier: PIs a[0..width-1], b[0..width-1]; POs
/// p[0..2*width-1].
[[nodiscard]] aig::Aig build_array_multiplier(unsigned width);

/// Unsigned comparator: PIs a[...], b[...]; POs lt, eq, gt.
[[nodiscard]] aig::Aig build_comparator(unsigned width);

/// Population count of \p width inputs; POs are the binary count
/// (ceil(log2(width+1)) bits, LSB first). Built from full adders.
[[nodiscard]] aig::Aig build_popcount(unsigned width);

}  // namespace simgen::benchgen
