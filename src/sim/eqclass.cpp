#include "sim/eqclass.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace simgen::sim {

EquivClasses::EquivClasses(std::vector<net::NodeId> candidates) {
  if (candidates.size() >= 2) classes_.push_back(std::move(candidates));
}

EquivClasses EquivClasses::from_classes(
    std::vector<std::vector<net::NodeId>> classes) {
  EquivClasses result({});
  result.classes_ = std::move(classes);
  return result;
}

EquivClasses EquivClasses::over_luts(const net::Network& network) {
  std::vector<net::NodeId> candidates;
  network.for_each_lut([&](net::NodeId id) { candidates.push_back(id); });
  return EquivClasses(std::move(candidates));
}

std::size_t EquivClasses::refine(std::span<const PatternWord> node_values) {
  std::size_t splits = 0;
  const bool journal = obs::journal_enabled();
  const auto source =
      static_cast<std::uint8_t>(obs::PatternScope::current_source());
  std::vector<std::vector<net::NodeId>> next;
  next.reserve(classes_.size());
  std::unordered_map<PatternWord, std::size_t> bucket_of;
  // Linear scan beats hashing for the small classes that dominate after
  // the first few rounds; the keys vector is kept in first-occurrence
  // order, so both paths produce identical bucket numbering.
  constexpr std::size_t kLinearScanLimit = 32;
  std::vector<PatternWord> keys;
  for (auto& members : classes_) {
    std::vector<std::vector<net::NodeId>> buckets;
    if (members.size() <= kLinearScanLimit) {
      keys.clear();
      for (net::NodeId node : members) {
        const PatternWord word = node_values[node];
        std::size_t bucket = 0;
        while (bucket < keys.size() && keys[bucket] != word) ++bucket;
        if (bucket == keys.size()) {
          keys.push_back(word);
          buckets.emplace_back();
        }
        buckets[bucket].push_back(node);
      }
    } else {
      bucket_of.clear();
      for (net::NodeId node : members) {
        const PatternWord word = node_values[node];
        const auto [it, inserted] = bucket_of.emplace(word, buckets.size());
        if (inserted) buckets.emplace_back();
        buckets[it->second].push_back(node);
      }
    }
    if (buckets.size() > 1) {
      ++splits;
      if (journal) {
        // The class is identified by its representative (first member);
        // a same-rep kClassCreated below is the parent continuing.
        obs::journal_emit(obs::EventKind::kClassSplit, source, members.front(),
                          0, buckets.size(), members.size());
        for (const auto& bucket : buckets)
          if (bucket.size() >= 2)
            obs::journal_emit(obs::EventKind::kClassCreated, source,
                              bucket.front(), 0, bucket.size());
      }
    }
    for (auto& bucket : buckets)
      if (bucket.size() >= 2) next.push_back(std::move(bucket));
  }
  classes_ = std::move(next);
  static obs::Counter& refine_calls = obs::counter("eq.refine_calls");
  static obs::Counter& split_count = obs::counter("eq.splits");
  refine_calls.inc();
  split_count.inc(splits);
  obs::set_gauge("eq.classes_live", static_cast<double>(classes_.size()));
  if (journal)
    obs::PatternScope::record_refine(splits, classes_.size(), cost());
  return splits;
}

void EquivClasses::remove_node(net::NodeId node) {
  for (auto& members : classes_) {
    const auto it = std::find(members.begin(), members.end(), node);
    if (it != members.end()) {
      members.erase(it);
      break;
    }
  }
  drop_singletons();
}

std::uint64_t EquivClasses::cost() const noexcept {
  std::uint64_t total = 0;
  for (const auto& members : classes_) total += members.size() - 1;
  return total;
}

std::size_t EquivClasses::num_live_nodes() const noexcept {
  std::size_t total = 0;
  for (const auto& members : classes_) total += members.size();
  return total;
}

void EquivClasses::drop_singletons() {
  std::erase_if(classes_, [](const auto& members) { return members.size() < 2; });
}

}  // namespace simgen::sim
