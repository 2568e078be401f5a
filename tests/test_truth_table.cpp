// Unit and property tests for tt::TruthTable, including parameterized
// sweeps over all supported arities (the small-word and multi-word code
// paths split at 6 variables).
#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace simgen::tt {
namespace {

TruthTable random_table(unsigned num_vars, util::Rng& rng) {
  TruthTable table(num_vars);
  for (std::uint64_t m = 0; m < table.num_bits(); ++m)
    table.set_bit(m, rng.flip());
  return table;
}

TEST(TruthTable, ConstantsAndBits) {
  const auto zero = TruthTable::constant(3, false);
  const auto one = TruthTable::constant(3, true);
  EXPECT_TRUE(zero.is_const0());
  EXPECT_TRUE(one.is_const1());
  EXPECT_EQ(zero.count_ones(), 0u);
  EXPECT_EQ(one.count_ones(), 8u);
  for (unsigned m = 0; m < 8; ++m) {
    EXPECT_FALSE(zero.get_bit(m));
    EXPECT_TRUE(one.get_bit(m));
  }
}

TEST(TruthTable, ProjectionSemantics) {
  for (unsigned n = 1; n <= 8; ++n) {
    for (unsigned v = 0; v < n; ++v) {
      const auto proj = TruthTable::projection(n, v);
      for (std::uint64_t m = 0; m < proj.num_bits(); ++m)
        EXPECT_EQ(proj.get_bit(m), ((m >> v) & 1u) != 0) << "n=" << n << " v=" << v;
    }
  }
}

TEST(TruthTable, ProjectionOutOfRangeThrows) {
  EXPECT_THROW(TruthTable::projection(3, 3), std::invalid_argument);
}

TEST(TruthTable, TooManyVarsThrows) {
  EXPECT_THROW(TruthTable(17), std::invalid_argument);
}

TEST(TruthTable, GateFunctions) {
  const auto and2 = TruthTable::and_gate(2);
  EXPECT_EQ(and2.to_binary(), "1000");
  const auto or2 = TruthTable::or_gate(2);
  EXPECT_EQ(or2.to_binary(), "1110");
  const auto xor2 = TruthTable::xor_gate(2);
  EXPECT_EQ(xor2.to_binary(), "0110");
  const auto nand2 = TruthTable::nand_gate(2);
  EXPECT_EQ(nand2.to_binary(), "0111");
  const auto nor2 = TruthTable::nor_gate(2);
  EXPECT_EQ(nor2.to_binary(), "0001");
  EXPECT_EQ(TruthTable::not_gate().to_binary(), "01");
  EXPECT_EQ(TruthTable::buffer().to_binary(), "10");
}

TEST(TruthTable, Majority3) {
  const auto maj = TruthTable::majority3();
  for (unsigned m = 0; m < 8; ++m) {
    const int ones = ((m >> 0) & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
    EXPECT_EQ(maj.get_bit(m), ones >= 2);
  }
}

TEST(TruthTable, Mux3SelectsBySelector) {
  const auto mux = TruthTable::mux3();  // s=var2: s ? b(var1) : a(var0)
  for (unsigned m = 0; m < 8; ++m) {
    const bool a = (m >> 0) & 1, b = (m >> 1) & 1, s = (m >> 2) & 1;
    EXPECT_EQ(mux.get_bit(m), s ? b : a);
  }
}

TEST(TruthTable, BinaryRoundTrip) {
  const auto table = TruthTable::from_binary("10010110");
  EXPECT_EQ(table.num_vars(), 3u);
  EXPECT_EQ(table.to_binary(), "10010110");
}

TEST(TruthTable, FromBinaryRejectsBadInput) {
  EXPECT_THROW(TruthTable::from_binary("101"), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_binary("10x0"), std::invalid_argument);
}

TEST(TruthTable, HexRoundTrip) {
  const auto table = TruthTable::from_hex(4, "8a2f");
  EXPECT_EQ(table.to_hex(), "8a2f");
  EXPECT_THROW(TruthTable::from_hex(4, "8a2"), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_hex(4, "8a2g"), std::invalid_argument);
}

TEST(TruthTable, HexAndGate) {
  EXPECT_EQ(TruthTable::and_gate(2).to_hex(), "8");
  EXPECT_EQ(TruthTable::and_gate(3).to_hex(), "80");
}

TEST(TruthTable, DependsOnAndSupport) {
  const auto and2in4 =
      TruthTable::projection(4, 0) & TruthTable::projection(4, 2);
  EXPECT_TRUE(and2in4.depends_on(0));
  EXPECT_FALSE(and2in4.depends_on(1));
  EXPECT_TRUE(and2in4.depends_on(2));
  EXPECT_FALSE(and2in4.depends_on(3));
  EXPECT_EQ(and2in4.support_mask(), 0b0101u);
  EXPECT_EQ(and2in4.support_size(), 2u);
}

TEST(TruthTable, CofactorIdentity) {
  // Shannon: f == (x & f1) | (!x & f0) for every variable.
  util::Rng rng(99);
  for (unsigned n = 1; n <= 8; ++n) {
    const auto f = random_table(n, rng);
    for (unsigned v = 0; v < n; ++v) {
      const auto f0 = f.cofactor0(v);
      const auto f1 = f.cofactor1(v);
      EXPECT_FALSE(f0.depends_on(v));
      EXPECT_FALSE(f1.depends_on(v));
      const auto x = TruthTable::projection(n, v);
      EXPECT_EQ((x & f1) | (~x & f0), f) << "n=" << n << " v=" << v;
    }
  }
}

TEST(TruthTable, BooleanAlgebraLaws) {
  util::Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const auto a = random_table(5, rng);
    const auto b = random_table(5, rng);
    EXPECT_EQ(~~a, a);
    EXPECT_EQ(a & b, b & a);
    EXPECT_EQ(a | b, b | a);
    EXPECT_EQ(a ^ b, (a & ~b) | (~a & b));
    EXPECT_EQ(~(a & b), ~a | ~b);  // De Morgan
    EXPECT_EQ(a & (a | b), a);     // absorption
  }
}

TEST(TruthTable, ArityMismatchThrows) {
  const auto a = TruthTable::constant(2, true);
  const auto b = TruthTable::constant(3, true);
  EXPECT_THROW((void)(a & b), std::invalid_argument);
}

TEST(TruthTable, Implies) {
  const auto and2 = TruthTable::and_gate(2);
  const auto or2 = TruthTable::or_gate(2);
  EXPECT_TRUE(and2.implies(or2));
  EXPECT_FALSE(or2.implies(and2));
  EXPECT_TRUE(and2.implies(and2));
}

TEST(TruthTable, ExtendedToPreservesFunction) {
  util::Rng rng(31);
  const auto f = random_table(3, rng);
  const auto g = f.extended_to(7);
  EXPECT_EQ(g.num_vars(), 7u);
  for (std::uint64_t m = 0; m < g.num_bits(); ++m)
    EXPECT_EQ(g.get_bit(m), f.get_bit(m & 7u));
  EXPECT_THROW(g.extended_to(3), std::invalid_argument);
}

TEST(TruthTable, SwapVarsExchangesTwoInputs) {
  util::Rng rng(37);
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_EQ(TruthTable::from_word(6, kVarMask[i]), TruthTable::projection(6, i));
    for (unsigned j = i + 1; j < 6; ++j) {
      EXPECT_EQ(swap_vars(kVarMask[i], i, j), kVarMask[j]);
      const std::uint64_t word = rng();
      const std::uint64_t swapped = swap_vars(word, i, j);
      for (unsigned m = 0; m < 64; ++m) {
        // Minterm m of the result reads the input minterm with bits i and
        // j of m exchanged.
        const unsigned bi = (m >> i) & 1u, bj = (m >> j) & 1u;
        const unsigned source = (m & ~((1u << i) | (1u << j))) | (bi << j) | (bj << i);
        ASSERT_EQ((swapped >> m) & 1u, (word >> source) & 1u)
            << "swap " << i << "," << j << " minterm " << m;
      }
    }
  }
}

TEST(TruthTable, HashDistinguishes) {
  const auto a = TruthTable::and_gate(2);
  const auto b = TruthTable::or_gate(2);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), TruthTable::and_gate(2).hash());
  // Same bits, different arity: distinct hash.
  const auto c1 = TruthTable::constant(2, false);
  const auto c2 = TruthTable::constant(3, false);
  EXPECT_NE(c1.hash(), c2.hash());
}

// Parameterized sweep: word-boundary behaviour must be identical across
// arities (1 word <= 6 vars, multiple words above).
class TruthTableArity : public ::testing::TestWithParam<unsigned> {};

TEST_P(TruthTableArity, CountOnesMatchesEnumeration) {
  const unsigned n = GetParam();
  util::Rng rng(1000 + n);
  const auto f = random_table(n, rng);
  std::uint64_t expected = 0;
  for (std::uint64_t m = 0; m < f.num_bits(); ++m)
    if (f.get_bit(m)) ++expected;
  EXPECT_EQ(f.count_ones(), expected);
}

TEST_P(TruthTableArity, NegationFlipsEveryBit) {
  const unsigned n = GetParam();
  util::Rng rng(2000 + n);
  const auto f = random_table(n, rng);
  const auto g = ~f;
  for (std::uint64_t m = 0; m < f.num_bits(); ++m)
    EXPECT_NE(f.get_bit(m), g.get_bit(m));
  EXPECT_EQ(f.count_ones() + g.count_ones(), f.num_bits());
}

TEST_P(TruthTableArity, HexRoundTripIsExact) {
  const unsigned n = GetParam();
  util::Rng rng(3000 + n);
  const auto f = random_table(n, rng);
  EXPECT_EQ(TruthTable::from_hex(n, f.to_hex()), f);
}

TEST_P(TruthTableArity, XorWithSelfIsZero) {
  const unsigned n = GetParam();
  util::Rng rng(4000 + n);
  const auto f = random_table(n, rng);
  EXPECT_TRUE((f ^ f).is_const0());
}

INSTANTIATE_TEST_SUITE_P(AllArities, TruthTableArity,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           10u, 12u));

}  // namespace
}  // namespace simgen::tt
