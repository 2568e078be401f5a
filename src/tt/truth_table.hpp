/// \file truth_table.hpp
/// \brief Bit-parallel truth tables for node functions.
///
/// A TruthTable stores the complete function of an up-to-16-input node as
/// packed 64-bit words (one word for <= 6 inputs, the common case for the
/// 6-LUT networks this library sweeps). The class provides the Boolean
/// algebra needed by the LUT mapper, the CNF encoder, the simulator, and
/// the ISOP cover extraction that SimGen's implication engine operates on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace simgen::tt {

/// Maximum supported number of truth-table variables.
inline constexpr unsigned kMaxVars = 16;

/// One-word masks for variables 0..5: bit m of kVarMask[v] is 1 iff
/// minterm m has input v set. kVarMask[v] is also the projection x_v as a
/// 6-input table.
inline constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

/// Swaps inputs \p i < \p j (both < 6) of a one-word 6-input table: the
/// minterms with x_i = 1, x_j = 0 trade places with those with x_i = 0,
/// x_j = 1 in one mask-and-shift step.
[[nodiscard]] constexpr std::uint64_t swap_vars(std::uint64_t word, unsigned i,
                                                unsigned j) noexcept {
  const unsigned shift = (1u << j) - (1u << i);
  const std::uint64_t low = kVarMask[i] & ~kVarMask[j];
  return (word & ~(low | (low << shift))) | ((word & low) << shift) |
         ((word >> shift) & low);
}

/// Complete Boolean function of `num_vars()` inputs.
///
/// Bit `m` of the table is the function value on the minterm whose binary
/// encoding is `m` (input 0 is the least significant input). Unused high
/// bits of the last word are kept zero for tables with fewer than 6
/// variables, which makes word-wise equality and hashing exact.
class TruthTable {
 public:
  /// Constructs the constant-0 function of \p num_vars inputs.
  explicit TruthTable(unsigned num_vars = 0);

  /// Builds a table from raw words (lowest word first). Extra bits beyond
  /// 2^num_vars are masked off.
  static TruthTable from_words(unsigned num_vars, std::span<const std::uint64_t> words);

  /// Builds a <=6-input table from a single word.
  static TruthTable from_word(unsigned num_vars, std::uint64_t word);

  /// Builds a table from a binary string, most significant minterm first
  /// (e.g. "1000" is AND of two inputs). Length must be 2^num_vars.
  static TruthTable from_binary(std::string_view bits);

  /// Builds a table from a hexadecimal string, most significant nibble
  /// first (e.g. "8" is 2-input AND). Length must be max(1, 2^num_vars/4).
  static TruthTable from_hex(unsigned num_vars, std::string_view hex);

  /// The constant-0 / constant-1 function of \p num_vars inputs.
  static TruthTable constant(unsigned num_vars, bool value);

  /// The projection function x_i of \p num_vars inputs.
  static TruthTable projection(unsigned num_vars, unsigned var);

  // Common gate functions (of `arity` inputs where it makes sense).
  static TruthTable and_gate(unsigned arity);
  static TruthTable or_gate(unsigned arity);
  static TruthTable xor_gate(unsigned arity);
  static TruthTable nand_gate(unsigned arity);
  static TruthTable nor_gate(unsigned arity);
  static TruthTable not_gate();
  static TruthTable buffer();
  static TruthTable majority3();
  static TruthTable mux3();  ///< if x2 then x1 else x0.

  [[nodiscard]] unsigned num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::uint64_t num_bits() const noexcept { return 1ull << num_vars_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Value of the function on minterm \p index.
  [[nodiscard]] bool get_bit(std::uint64_t index) const noexcept {
    return (words_[index >> 6] >> (index & 63u)) & 1u;
  }
  void set_bit(std::uint64_t index, bool value) noexcept {
    const std::uint64_t mask = 1ull << (index & 63u);
    if (value)
      words_[index >> 6] |= mask;
    else
      words_[index >> 6] &= ~mask;
  }

  [[nodiscard]] bool is_const0() const noexcept;
  [[nodiscard]] bool is_const1() const noexcept;

  /// Number of minterms on which the function is 1.
  [[nodiscard]] std::uint64_t count_ones() const noexcept;

  /// True iff the function depends on variable \p var.
  [[nodiscard]] bool depends_on(unsigned var) const noexcept;

  /// Bitmask of variables the function depends on.
  [[nodiscard]] std::uint32_t support_mask() const noexcept;

  /// Number of variables in the functional support.
  [[nodiscard]] unsigned support_size() const noexcept;

  /// Negative / positive cofactor with respect to \p var. The result has
  /// the same num_vars but no longer depends on \p var.
  [[nodiscard]] TruthTable cofactor0(unsigned var) const;
  [[nodiscard]] TruthTable cofactor1(unsigned var) const;

  // Boolean algebra. Operands must have identical num_vars.
  [[nodiscard]] TruthTable operator~() const;
  [[nodiscard]] TruthTable operator&(const TruthTable& other) const;
  [[nodiscard]] TruthTable operator|(const TruthTable& other) const;
  [[nodiscard]] TruthTable operator^(const TruthTable& other) const;
  TruthTable& operator&=(const TruthTable& other);
  TruthTable& operator|=(const TruthTable& other);
  TruthTable& operator^=(const TruthTable& other);

  bool operator==(const TruthTable& other) const noexcept = default;

  /// True iff this function implies \p other (this <= other pointwise).
  [[nodiscard]] bool implies(const TruthTable& other) const noexcept;

  /// Evaluates the function on a complete input assignment given as a
  /// bitmask (bit i = value of input i).
  [[nodiscard]] bool evaluate(std::uint32_t input_bits) const noexcept {
    return get_bit(input_bits);
  }

  /// Returns an equivalent table extended to \p num_vars inputs (the new
  /// high variables are don't-cares). Requires num_vars >= current.
  [[nodiscard]] TruthTable extended_to(unsigned target_vars) const;

  /// Stable 64-bit hash of (num_vars, contents).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// Hexadecimal rendering, most significant nibble first.
  [[nodiscard]] std::string to_hex() const;

  /// Binary rendering, most significant minterm first.
  [[nodiscard]] std::string to_binary() const;

 private:
  void mask_tail() noexcept;
  void check_compatible(const TruthTable& other) const;

  unsigned num_vars_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace simgen::tt
