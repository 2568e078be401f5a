/// \file outgold.hpp
/// \brief OUTgold target generation (paper Section 3, step 1).
///
/// OUTgold values are the desired output values for the target nodes of an
/// equivalence class. SimGen uses the paper's policy: alternate zeros and
/// ones across the class members ordered by node ID, so that a vector
/// satisfying any 0-target and any 1-target is guaranteed to split the
/// class.
#pragma once

#include <span>
#include <vector>

#include "network/network.hpp"

namespace simgen::core {

/// One target node and its desired output value.
struct Target {
  net::NodeId node = net::kNullNode;
  bool gold = false;
};

/// Alternating OUTgold assignment over \p class_members, ordered by node
/// ID; members at even positions get \p first_value, odd positions its
/// complement — an equal (+/-1) number of zeros and ones, as Section 6.1
/// prescribes.
[[nodiscard]] std::vector<Target> make_outgold(
    std::span<const net::NodeId> class_members, bool first_value = false);

/// Orders targets by decreasing network level (Algorithm 1 line 2:
/// nodes furthest from the PIs are processed first). Stable, so equal
/// levels keep their OUTgold order.
void order_targets_by_depth(const net::Network& network, std::vector<Target>& targets);

}  // namespace simgen::core
