/// \file decision.hpp
/// \brief Decision policies: which truth-table row to commit to (paper §5).
///
/// When implications dry up, Algorithm 1 must pick one row for the current
/// candidate node. The policies implemented here are exactly the paper's
/// evaluation arms:
///  * kRandom       — uniform choice among matching rows (the RD in SI+RD
///                    and AI+RD);
///  * kDontCare     — roulette-wheel selection weighted by dc_size
///                    (Equation 1): rows that leave more inputs open win;
///  * kDontCareMffc — roulette-wheel over the combined priority of
///                    Equation 4: alpha * dc_size + beta * mffc_rank, with
///                    mffc_rank from Equation 3 preferring rows that place
///                    their non-DC literals on fanins with deep MFFCs.
#pragma once

#include <cstdint>

#include "network/mffc.hpp"
#include "network/scoap.hpp"
#include "network/network.hpp"
#include "simgen/rows.hpp"
#include "simgen/tval.hpp"
#include "util/rng.hpp"

namespace simgen::core {

enum class DecisionStrategy : std::uint8_t {
  kRandom,
  kDontCare,
  kDontCareMffc,
  /// Extension beyond the paper: DC count plus SCOAP controllability —
  /// among equally-DC rows prefer the one whose literals are cheapest to
  /// justify (low CC0/CC1 at the constrained fanins). Requires SCOAP
  /// costs to be supplied to the decision engine.
  kDontCareScoap,
};

/// Weights of Equation 4 (alpha on the DC count, beta on the MFFC rank)
/// and of the SCOAP term (gamma, used by kDontCareScoap). The paper
/// requires alpha >> beta: the DC count dominates, and the structural
/// term only breaks ties between rows with equally many DCs.
inline constexpr double kAlpha = 100.0;
inline constexpr double kBeta = 1.0;
inline constexpr double kGamma = 1.0;

/// Outcome of one decision.
struct DecisionOutcome {
  bool made = false;        ///< False if no row matched (conflict).
  std::size_t row_index = 0;  ///< Chosen row within the node's row list.
  std::size_t assignments = 0;
};

/// Decision engine with persistent scratch (one decision per Algorithm 1
/// inner-loop iteration; reuse keeps the loop allocation-free).
class DecisionEngine {
 public:
  DecisionEngine(const net::Network& network, const RowDatabase& rows)
      : network_(network), rows_(rows), match_(rows.max_mask_words()) {}

  /// Supplies SCOAP costs (required before using kDontCareScoap).
  void set_scoap(const net::ScoapCosts* scoap) noexcept { scoap_ = scoap; }

  /// Picks a matching row of \p node per \p strategy and assigns all of
  /// its previously unassigned values (output and non-DC inputs) into
  /// \p values. \p mffc may be null for strategies that do not use it.
  DecisionOutcome decide(NodeValues& values, net::NodeId node,
                         DecisionStrategy strategy,
                         const net::MffcDepthCache* mffc, util::Rng& rng);

 private:
  const net::Network& network_;
  const RowDatabase& rows_;
  const net::ScoapCosts* scoap_ = nullptr;
  std::vector<std::uint64_t> match_;  ///< Matching-row mask of the node.
  std::vector<std::uint32_t> match_scratch_;
  std::vector<double> cdf_scratch_;
};

/// One-shot convenience wrapper.
DecisionOutcome decide(const net::Network& network, const RowDatabase& rows,
                       NodeValues& values, net::NodeId node,
                       DecisionStrategy strategy, const net::MffcDepthCache* mffc,
                       util::Rng& rng);

/// Equation 3: MFFC rank of a row at \p node — the sum of MFFC depths of
/// the fanins the row constrains (non-DC positions). Exposed for tests
/// and the ablation bench.
[[nodiscard]] double mffc_rank(const net::Network& network,
                               const net::MffcDepthCache& mffc, net::NodeId node,
                               const Row& row);

/// Equation 4: combined row priority.
[[nodiscard]] double row_priority(const net::Network& network,
                                  const net::MffcDepthCache* mffc, net::NodeId node,
                                  const Row& row, DecisionStrategy strategy);

/// SCOAP tie-break term of kDontCareScoap: 1/(1 + sum of controllability
/// costs demanded by the row's literals). Exposed for tests/ablations.
[[nodiscard]] double scoap_row_bonus(const net::Network& network,
                                     const net::ScoapCosts& scoap,
                                     net::NodeId node, const Row& row);

}  // namespace simgen::core
