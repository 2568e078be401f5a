/// \file lut_mapper.hpp
/// \brief Depth-oriented 6-LUT technology mapping of AIGs.
///
/// Reproduces the "if -K 6" step of the paper's methodology (Section 6.1):
/// every benchmark is LUT-mapped before the sweeping flow sees it. The
/// mapper selects each node's depth-optimal cut and extracts the cover
/// reachable from the POs, emitting one LUT per chosen cut.
#pragma once

#include "aig/aig.hpp"
#include "mapping/cuts.hpp"
#include "network/network.hpp"

namespace simgen::mapping {

/// Maps \p graph to a 6-LUT network (kLutSize) from each node's
/// depth-optimal cut. The result's PIs/POs correspond to the AIG's by
/// index; PO complement bits are folded into the driving LUT functions
/// (or emitted as inverter LUTs for PI/constant drivers).
[[nodiscard]] net::Network map_to_luts(const aig::Aig& graph);

}  // namespace simgen::mapping
