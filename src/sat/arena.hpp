/// \file arena.hpp
/// \brief Packed clause arena for the CDCL solver.
///
/// All clauses live contiguously in one std::vector<uint32_t>, addressed
/// by 32-bit word offsets (ClauseRef) instead of pointers: half the
/// reference size of a pointer-based store, no per-clause heap
/// allocation, and sequential clause visits (conflict analysis, database
/// reduction, garbage collection) walk one cache-friendly buffer.
/// Layout per clause, in words:
///
///   [0] header: size << 3 | learnt << 2 | garbage << 1 | relocated
///   [1] learnt activity (float bits) — reused as the relocation target
///       while a garbage collection is in flight
///   [2 .. 2+size) literal codes (Lit::code)
///
/// Deletion marks the clause garbage and counts its words as wasted;
/// when the wasted fraction grows too large the solver copies the live
/// clauses into a fresh arena (copying GC) and rewrites every watch and
/// reason through reloc(). References outside src/sat are forbidden
/// (enforced by the simgen-arena-ref tidy check): the arena is a solver
/// internal, not a public clause API.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace simgen::sat {

/// Word offset of a clause header inside the arena.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kInvalidClauseRef = ~ClauseRef{0};

class ClauseArena {
 public:
  ClauseArena() = default;

  /// Allocates a clause; literals are copied verbatim (no normalization).
  ClauseRef alloc(std::span<const Lit> lits, bool learnt);

  [[nodiscard]] std::uint32_t size(ClauseRef ref) const noexcept {
    return mem_[ref] >> 3;
  }
  [[nodiscard]] bool learnt(ClauseRef ref) const noexcept {
    return (mem_[ref] & 4u) != 0;
  }
  [[nodiscard]] bool garbage(ClauseRef ref) const noexcept {
    return (mem_[ref] & 2u) != 0;
  }

  [[nodiscard]] Lit lit(ClauseRef ref, std::uint32_t index) const noexcept {
    return Lit::from_code(mem_[ref + 2 + index]);
  }
  void swap_lits(ClauseRef ref, std::uint32_t i, std::uint32_t j) noexcept {
    std::swap(mem_[ref + 2 + i], mem_[ref + 2 + j]);
  }
  /// Appends the clause's literals to \p out (proof emission scratch).
  void copy_lits(ClauseRef ref, std::vector<Lit>& out) const;

  [[nodiscard]] float activity(ClauseRef ref) const noexcept {
    float value;
    static_assert(sizeof(float) == sizeof(std::uint32_t));
    __builtin_memcpy(&value, &mem_[ref + 1], sizeof(value));
    return value;
  }
  void set_activity(ClauseRef ref, float value) noexcept {
    __builtin_memcpy(&mem_[ref + 1], &value, sizeof(value));
  }

  /// Marks the clause garbage; the storage is reclaimed by the next
  /// garbage_collect pass.
  void free(ClauseRef ref) noexcept {
    assert(!garbage(ref));
    mem_[ref] |= 2u;
    wasted_ += size(ref) + 2;
  }

  /// Copying-GC relocation: moves the clause into \p to on first call and
  /// rewrites \p ref; later calls for the same clause just rewrite.
  void reloc(ClauseRef& ref, ClauseArena& to);

  [[nodiscard]] std::size_t size_words() const noexcept { return mem_.size(); }
  [[nodiscard]] std::size_t wasted_words() const noexcept { return wasted_; }
  void reserve_words(std::size_t words) { mem_.reserve(words); }

 private:
  std::vector<std::uint32_t> mem_;
  std::size_t wasted_ = 0;
};

}  // namespace simgen::sat
