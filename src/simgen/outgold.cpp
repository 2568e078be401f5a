#include "simgen/outgold.hpp"

#include <algorithm>

namespace simgen::core {

std::vector<Target> make_outgold(std::span<const net::NodeId> class_members,
                                 bool first_value) {
  std::vector<net::NodeId> ordered(class_members.begin(), class_members.end());
  std::sort(ordered.begin(), ordered.end());
  std::vector<Target> targets;
  targets.reserve(ordered.size());
  bool value = first_value;
  for (net::NodeId node : ordered) {
    targets.push_back(Target{node, value});
    value = !value;
  }
  return targets;
}

void order_targets_by_depth(const net::Network& network,
                            std::vector<Target>& targets) {
  std::stable_sort(targets.begin(), targets.end(),
                   [&](const Target& a, const Target& b) {
                     return network.level(a.node) > network.level(b.node);
                   });
}

}  // namespace simgen::core
