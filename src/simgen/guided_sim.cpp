#include "simgen/guided_sim.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/journal.hpp"
#include "util/stopwatch.hpp"

namespace simgen::core {
namespace {

/// Packs up to 64 (partial) vectors into PI simulation words and refines
/// the classes. Don't-care positions are filled with fresh random bits;
/// unused pattern slots become fully random patterns, so every arm rides
/// on the same random baseline and the comparison isolates the guided
/// content of the vectors.
class PatternBatcher {
 public:
  PatternBatcher(sim::Simulator& simulator, sim::EquivClasses& classes,
                 util::Rng& rng, Strategy strategy)
      : simulator_(simulator),
        classes_(classes),
        rng_(rng),
        source_(strategy == Strategy::kRevS ? obs::PatternSource::kRevS
                                            : obs::PatternSource::kSimGen),
        strategy_code_(static_cast<std::uint8_t>(strategy)) {}

  void add(const std::vector<TVal>& pi_values) {
    batch_.push_back(pi_values);
    if (batch_.size() == 64) flush();
  }

  /// \p force simulates a word even with an empty batch (pure random):
  /// the guided phase keeps the random stream flowing each iteration, as
  /// the surrounding sweeping flow of Figure 2 does.
  void flush(bool force = false) {
    if (batch_.empty() && !force) return;
    // Attribute the batch (and the class splits its refine causes) to the
    // guided strategy that produced its vectors.
    obs::PatternScope scope(source_, static_cast<std::uint32_t>(batch_.size()),
                            strategy_code_);
    const std::size_t num_pis = simulator_.network().num_pis();
    std::vector<sim::PatternWord> words(num_pis, 0);
    for (std::size_t i = 0; i < num_pis; ++i) words[i] = rng_();
    for (std::size_t pattern = 0; pattern < batch_.size(); ++pattern) {
      const auto& vec = batch_[pattern];
      for (std::size_t i = 0; i < num_pis; ++i) {
        bool bit;
        switch (vec[i]) {
          case TVal::kZero: bit = false; break;
          case TVal::kOne: bit = true; break;
          default: continue;  // keep the random fill bit
        }
        if (bit)
          words[i] |= sim::PatternWord{1} << pattern;
        else
          words[i] &= ~(sim::PatternWord{1} << pattern);
      }
    }
    simulator_.simulate_word(words);
    classes_.refine(simulator_.values());
    batch_.clear();
  }

 private:
  sim::Simulator& simulator_;
  sim::EquivClasses& classes_;
  util::Rng& rng_;
  obs::PatternSource source_;
  std::uint8_t strategy_code_;
  std::vector<std::vector<TVal>> batch_;
};

}  // namespace

std::string_view strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kRevS: return "RevS";
    case Strategy::kSiRd: return "SI+RD";
    case Strategy::kAiRd: return "AI+RD";
    case Strategy::kAiDc: return "AI+DC";
    case Strategy::kAiDcMffc: return "AI+DC+MFFC";
    case Strategy::kAiDcScoap: return "AI+DC+SCOAP";
  }
  return "?";
}

GeneratorOptions generator_options_for(Strategy strategy) {
  GeneratorOptions options;
  switch (strategy) {
    case Strategy::kSiRd:
      options.implication = ImplicationStrategy::kSimple;
      options.decision = DecisionStrategy::kRandom;
      break;
    case Strategy::kAiRd:
      options.implication = ImplicationStrategy::kAdvanced;
      options.decision = DecisionStrategy::kRandom;
      break;
    case Strategy::kAiDc:
      options.implication = ImplicationStrategy::kAdvanced;
      options.decision = DecisionStrategy::kDontCare;
      break;
    case Strategy::kAiDcMffc:
      options.implication = ImplicationStrategy::kAdvanced;
      options.decision = DecisionStrategy::kDontCareMffc;
      break;
    case Strategy::kAiDcScoap:
      options.implication = ImplicationStrategy::kAdvanced;
      options.decision = DecisionStrategy::kDontCareScoap;
      break;
    case Strategy::kRevS:
      throw std::invalid_argument("RevS is not a PatternGenerator arm");
  }
  return options;
}

GuidedSimResult run_guided_simulation(sim::Simulator& simulator,
                                      sim::EquivClasses& classes,
                                      const GuidedSimOptions& options) {
  const net::Network& network = simulator.network();
  obs::PhaseScope phase(obs::PhaseId::kGuidedSim);
  GuidedSimResult result;
  util::Stopwatch watch;
  watch.start();

  util::Rng fill_rng(util::splitmix64(options.seed) ^ 0xf111f111u);
  PatternBatcher batcher(simulator, classes, fill_rng, options.strategy);

  // Strategy-specific generator state lives across iterations so the RNG
  // streams, the compiled row tables and the MFFC data are reused.
  PatternGenerator* generator = nullptr;
  ReverseSimulator* reverse = nullptr;
  std::optional<PatternGenerator> generator_storage;
  std::optional<ReverseSimulator> reverse_storage;
  if (options.strategy == Strategy::kRevS) {
    reverse_storage.emplace(network, options.seed);
    reverse = &*reverse_storage;
  } else {
    generator_storage.emplace(network, generator_options_for(options.strategy),
                              options.seed);
    generator = &*generator_storage;
  }
  util::Rng pair_rng(util::splitmix64(options.seed) ^ 0x9a1fu);
  // Running implication and conflict totals of this run's engine, read
  // only while the journal is open: each kGuidedIteration event reports
  // the iteration's share.
  const auto engine_totals = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
    if (generator != nullptr)
      return {generator->stats().implications.value(),
              generator->stats().conflicts.value()};
    return {0, reverse->stats().conflicts.value()};
  };

  // Per-class retry schedule, keyed by the class representative (the
  // lowest member id, which is stable while the class merely shrinks).
  struct Backoff {
    std::size_t next_try = 0;
    unsigned delay = 1;
    std::size_t last_size = 0;
  };
  std::unordered_map<net::NodeId, Backoff> backoff;

  for (std::size_t iteration = 0; iteration < options.iterations; ++iteration) {
    if (classes.fully_refined()) {
      result.cost_per_iteration.push_back(0);
      continue;
    }
    const bool journal = obs::journal_enabled();
    const std::uint64_t start_ns =
        journal ? obs::Journal::instance().now_ns() : 0;
    const std::uint64_t generated0 = result.vectors_generated;
    const std::uint64_t skipped0 = result.vectors_skipped;
    const auto [implications0, conflicts0] =
        journal ? engine_totals() : std::pair<std::uint64_t, std::uint64_t>{};
    // Snapshot the class member lists: refinement during flushes changes
    // the partition, and targets staying valid for their class is only a
    // heuristic concern.
    std::vector<std::vector<net::NodeId>> snapshot;
    snapshot.reserve(classes.num_classes());
    for (sim::ClassId c{0}; c < classes.num_classes(); ++c) {
      const auto members = classes.class_members(c);
      snapshot.emplace_back(members.begin(), members.end());
    }

    for (const auto& members : snapshot) {
      Backoff* schedule = nullptr;
      if (options.max_backoff > 0) {
        schedule = &backoff[*std::min_element(members.begin(), members.end())];
        // A class that shrank since the last attempt has genuinely new
        // structure — retry it immediately.
        if (schedule->last_size != members.size()) {
          schedule->delay = 1;
          schedule->next_try = 0;
          schedule->last_size = members.size();
        }
        if (iteration < schedule->next_try) continue;
      }
      bool produced_vector = false;
      if (options.strategy == Strategy::kRevS) {
        // RevS: one random pair with complementary values.
        const std::size_t i = pair_rng.below(members.size());
        std::size_t j = pair_rng.below(members.size() - 1);
        if (j >= i) ++j;
        const bool gold_i = pair_rng.flip();
        const ReverseSimResult vector = reverse->generate(
            Target{members[i], gold_i}, Target{members[j], !gold_i});
        if (vector.success) {
          ++result.vectors_generated;
          batcher.add(vector.pi_values);
          produced_vector = true;
        } else {
          ++result.vectors_skipped;
        }
      } else {
        std::vector<Target> targets = make_outgold(members);
        const std::size_t cap = options.max_targets_per_class;
        if (cap >= 2 && targets.size() > cap) {
          // Evenly spaced subsample keeps the gold alternation (and thus
          // the chance of an opposite-gold pair) intact.
          std::vector<Target> sampled;
          sampled.reserve(cap);
          for (std::size_t k = 0; k < cap; ++k)
            sampled.push_back(targets[k * targets.size() / cap]);
          targets = std::move(sampled);
        }
        const VectorResult vector = generator->generate(targets);
        if (vector.usable()) {
          ++result.vectors_generated;
          batcher.add(vector.pi_values);
          produced_vector = true;
        } else {
          // Section 3: no opposite-gold pair honoured -> skip simulation.
          ++result.vectors_skipped;
        }
      }
      if (schedule != nullptr) {
        if (produced_vector) {
          schedule->delay = 1;
          schedule->next_try = iteration + 1;
        } else {
          schedule->next_try = iteration + 1 + schedule->delay;
          schedule->delay = std::min(2 * schedule->delay, options.max_backoff);
        }
      }
    }
    batcher.flush(/*force=*/true);
    result.cost_per_iteration.push_back(classes.cost());
    if (journal) {
      const auto [implications, conflicts] = engine_totals();
      const std::uint64_t end_ns = obs::Journal::instance().now_ns();
      obs::journal_emit(
          obs::EventKind::kGuidedIteration,
          static_cast<std::uint8_t>(options.strategy), iteration,
          result.vectors_generated - generated0, classes.cost(),
          result.vectors_skipped - skipped0, implications - implications0,
          conflicts - conflicts0,
          obs::saturate_us(static_cast<double>(end_ns - start_ns) * 1e-9));
    }
  }

  if (generator != nullptr) result.conflicts = generator->stats().conflicts.value();
  if (reverse != nullptr) result.conflicts = reverse->stats().conflicts.value();
  watch.stop();
  result.runtime_seconds = watch.seconds();
  phase.set_result(classes.cost(), classes.num_classes());
  return result;
}

}  // namespace simgen::core
