/// \file types.hpp
/// \brief Core SAT value types: variables, literals, solver results.
///
/// Split out of solver.hpp so low-level solver internals (the clause
/// arena) can name literals without pulling in the whole Solver class.
#pragma once

#include <cstdint>

#include "util/strong_id.hpp"

namespace simgen::sat {

/// Variable index, 0-based. A strong type: a sat::Var is not a
/// net::NodeId (the CNF encoder owns the mapping between the two spaces),
/// and handing one across that boundary without going through the encoder
/// is a compile error.
struct VarTag {};
using Var = util::StrongId<VarTag>;

/// Literal: 2*var + sign (sign 1 = negated).
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var var, bool negated) noexcept
      : code_((var.value() << 1) | static_cast<std::uint32_t>(negated)) {}

  [[nodiscard]] constexpr Var var() const noexcept { return Var{code_ >> 1}; }
  [[nodiscard]] constexpr bool negated() const noexcept { return code_ & 1u; }
  [[nodiscard]] constexpr Lit operator~() const noexcept { return from_code(code_ ^ 1u); }
  [[nodiscard]] constexpr std::uint32_t code() const noexcept { return code_; }

  static constexpr Lit from_code(std::uint32_t code) noexcept {
    Lit lit;
    lit.code_ = code;
    return lit;
  }

  constexpr bool operator==(const Lit&) const noexcept = default;

 private:
  std::uint32_t code_ = 0;
};

/// Positive literal of \p var.
[[nodiscard]] constexpr Lit pos(Var var) noexcept { return Lit(var, false); }
/// Negative literal of \p var.
[[nodiscard]] constexpr Lit neg(Var var) noexcept { return Lit(var, true); }

enum class Result : std::uint8_t { kSat, kUnsat, kUnknown };

}  // namespace simgen::sat
