#include "tt/truth_table.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/rng.hpp"

namespace simgen::tt {
namespace {

constexpr std::size_t words_for(unsigned num_vars) noexcept {
  return num_vars <= 6 ? 1u : (std::size_t{1} << (num_vars - 6));
}

}  // namespace

TruthTable::TruthTable(unsigned num_vars)
    : num_vars_(num_vars), words_(words_for(num_vars), 0) {
  if (num_vars > kMaxVars) throw std::invalid_argument("TruthTable: too many variables");
}

TruthTable TruthTable::from_words(unsigned num_vars, std::span<const std::uint64_t> words) {
  TruthTable table(num_vars);
  const std::size_t n = std::min(words.size(), table.words_.size());
  for (std::size_t i = 0; i < n; ++i) table.words_[i] = words[i];
  table.mask_tail();
  return table;
}

TruthTable TruthTable::from_word(unsigned num_vars, std::uint64_t word) {
  return from_words(num_vars, std::span(&word, 1));
}

TruthTable TruthTable::from_binary(std::string_view bits) {
  unsigned num_vars = 0;
  while ((std::uint64_t{1} << num_vars) < bits.size()) ++num_vars;
  if ((std::uint64_t{1} << num_vars) != bits.size())
    throw std::invalid_argument("TruthTable::from_binary: length must be a power of two");
  TruthTable table(num_vars);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[bits.size() - 1 - i];
    if (c != '0' && c != '1')
      throw std::invalid_argument("TruthTable::from_binary: invalid character");
    table.set_bit(i, c == '1');
  }
  return table;
}

TruthTable TruthTable::from_hex(unsigned num_vars, std::string_view hex) {
  TruthTable table(num_vars);
  const std::size_t nibbles = std::max<std::size_t>(1, table.num_bits() / 4);
  if (hex.size() != nibbles)
    throw std::invalid_argument("TruthTable::from_hex: wrong length");
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const char c = hex[hex.size() - 1 - i];
    unsigned value = 0;
    if (c >= '0' && c <= '9')
      value = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value = static_cast<unsigned>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F')
      value = static_cast<unsigned>(c - 'A') + 10;
    else
      throw std::invalid_argument("TruthTable::from_hex: invalid character");
    table.words_[i / 16] |= static_cast<std::uint64_t>(value) << (4 * (i % 16));
  }
  table.mask_tail();
  return table;
}

TruthTable TruthTable::constant(unsigned num_vars, bool value) {
  TruthTable table(num_vars);
  if (value) {
    for (auto& word : table.words_) word = ~0ull;
    table.mask_tail();
  }
  return table;
}

TruthTable TruthTable::projection(unsigned num_vars, unsigned var) {
  if (var >= num_vars) throw std::invalid_argument("TruthTable::projection: var out of range");
  TruthTable table(num_vars);
  if (var < 6) {
    for (auto& word : table.words_) word = kVarMask[var];
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < table.words_.size(); ++i)
      if (i & stride) table.words_[i] = ~0ull;
  }
  table.mask_tail();
  return table;
}

TruthTable TruthTable::and_gate(unsigned arity) {
  TruthTable table = constant(arity, true);
  for (unsigned v = 0; v < arity; ++v) table &= projection(arity, v);
  return table;
}

TruthTable TruthTable::or_gate(unsigned arity) {
  TruthTable table = constant(arity, false);
  for (unsigned v = 0; v < arity; ++v) table |= projection(arity, v);
  return table;
}

TruthTable TruthTable::xor_gate(unsigned arity) {
  TruthTable table = constant(arity, false);
  for (unsigned v = 0; v < arity; ++v) table ^= projection(arity, v);
  return table;
}

TruthTable TruthTable::nand_gate(unsigned arity) { return ~and_gate(arity); }
TruthTable TruthTable::nor_gate(unsigned arity) { return ~or_gate(arity); }
TruthTable TruthTable::not_gate() { return ~projection(1, 0); }
TruthTable TruthTable::buffer() { return projection(1, 0); }

TruthTable TruthTable::majority3() {
  const auto a = projection(3, 0), b = projection(3, 1), c = projection(3, 2);
  return (a & b) | (a & c) | (b & c);
}

TruthTable TruthTable::mux3() {
  const auto a = projection(3, 0), b = projection(3, 1), s = projection(3, 2);
  return (s & b) | (~s & a);
}

bool TruthTable::is_const0() const noexcept {
  for (auto word : words_)
    if (word != 0) return false;
  return true;
}

bool TruthTable::is_const1() const noexcept {
  return *this == constant(num_vars_, true);
}

std::uint64_t TruthTable::count_ones() const noexcept {
  std::uint64_t count = 0;
  for (auto word : words_) count += static_cast<std::uint64_t>(std::popcount(word));
  return count;
}

bool TruthTable::depends_on(unsigned var) const noexcept {
  if (var >= num_vars_) return false;
  if (var < 6) {
    const unsigned shift = 1u << var;
    for (auto word : words_)
      if (((word >> shift) ^ word) & ~kVarMask[var]) return true;
    return false;
  }
  const std::size_t stride = std::size_t{1} << (var - 6);
  for (std::size_t i = 0; i < words_.size(); i += 2 * stride)
    for (std::size_t j = 0; j < stride; ++j)
      if (words_[i + j] != words_[i + j + stride]) return true;
  return false;
}

std::uint32_t TruthTable::support_mask() const noexcept {
  std::uint32_t mask = 0;
  for (unsigned v = 0; v < num_vars_; ++v)
    if (depends_on(v)) mask |= 1u << v;
  return mask;
}

unsigned TruthTable::support_size() const noexcept {
  return static_cast<unsigned>(std::popcount(support_mask()));
}

TruthTable TruthTable::cofactor0(unsigned var) const {
  assert(var < num_vars_);
  TruthTable result = *this;
  if (var < 6) {
    const unsigned shift = 1u << var;
    for (auto& word : result.words_) {
      const std::uint64_t low = word & ~kVarMask[var];
      word = low | (low << shift);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < result.words_.size(); i += 2 * stride)
      for (std::size_t j = 0; j < stride; ++j)
        result.words_[i + j + stride] = result.words_[i + j];
  }
  result.mask_tail();
  return result;
}

TruthTable TruthTable::cofactor1(unsigned var) const {
  assert(var < num_vars_);
  TruthTable result = *this;
  if (var < 6) {
    const unsigned shift = 1u << var;
    for (auto& word : result.words_) {
      const std::uint64_t high = word & kVarMask[var];
      word = high | (high >> shift);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < result.words_.size(); i += 2 * stride)
      for (std::size_t j = 0; j < stride; ++j)
        result.words_[i + j] = result.words_[i + j + stride];
  }
  result.mask_tail();
  return result;
}

TruthTable TruthTable::operator~() const {
  TruthTable result = *this;
  for (auto& word : result.words_) word = ~word;
  result.mask_tail();
  return result;
}

TruthTable TruthTable::operator&(const TruthTable& other) const {
  TruthTable result = *this;
  result &= other;
  return result;
}

TruthTable TruthTable::operator|(const TruthTable& other) const {
  TruthTable result = *this;
  result |= other;
  return result;
}

TruthTable TruthTable::operator^(const TruthTable& other) const {
  TruthTable result = *this;
  result ^= other;
  return result;
}

TruthTable& TruthTable::operator&=(const TruthTable& other) {
  check_compatible(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& other) {
  check_compatible(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& other) {
  check_compatible(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

bool TruthTable::implies(const TruthTable& other) const noexcept {
  assert(num_vars_ == other.num_vars_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i] & ~other.words_[i]) return false;
  return true;
}

TruthTable TruthTable::extended_to(unsigned target_vars) const {
  if (target_vars < num_vars_)
    throw std::invalid_argument("TruthTable::extended_to: cannot shrink");
  TruthTable result(target_vars);
  if (num_vars_ <= 6) {
    // Replicate the (2^num_vars)-bit pattern to fill a full word, then
    // copy the word across the result.
    std::uint64_t word = words_[0];
    for (unsigned v = num_vars_; v < 6 && v < target_vars; ++v)
      word |= word << (1u << v);
    for (auto& out : result.words_) out = word;
  } else {
    for (std::size_t i = 0; i < result.words_.size(); ++i)
      result.words_[i] = words_[i % words_.size()];
  }
  result.mask_tail();
  return result;
}

std::uint64_t TruthTable::hash() const noexcept {
  std::uint64_t h = util::splitmix64(num_vars_);
  for (auto word : words_) h = util::splitmix64(h ^ word);
  return h;
}

std::string TruthTable::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::size_t nibbles = std::max<std::size_t>(1, num_bits() / 4);
  std::string out(nibbles, '0');
  for (std::size_t i = 0; i < nibbles; ++i) {
    const unsigned value =
        static_cast<unsigned>((words_[i / 16] >> (4 * (i % 16))) & 0xfu);
    out[nibbles - 1 - i] = kDigits[value];
  }
  if (num_vars_ == 0) out[0] = kDigits[words_[0] & 1u];
  if (num_vars_ == 1) out[0] = kDigits[words_[0] & 3u];
  return out;
}

std::string TruthTable::to_binary() const {
  std::string out(num_bits(), '0');
  for (std::uint64_t i = 0; i < num_bits(); ++i)
    if (get_bit(i)) out[num_bits() - 1 - i] = '1';
  return out;
}

void TruthTable::mask_tail() noexcept {
  if (num_vars_ < 6) words_[0] &= (1ull << num_bits()) - 1;
}

void TruthTable::check_compatible(const TruthTable& other) const {
  if (num_vars_ != other.num_vars_)
    throw std::invalid_argument("TruthTable: operand arity mismatch");
}

}  // namespace simgen::tt
