#include "sweep/sweeper.hpp"

#include <span>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/resource.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace simgen::sweep {

namespace {

obs::SatVerdict to_verdict(sat::Result result) noexcept {
  switch (result) {
    case sat::Result::kSat: return obs::SatVerdict::kSat;
    case sat::Result::kUnsat: return obs::SatVerdict::kUnsat;
    case sat::Result::kUnknown: return obs::SatVerdict::kUnknown;
  }
  return obs::SatVerdict::kUnknown;
}

/// One counterexample as simulation words: pattern 0 is the SAT model
/// (unencoded PIs filled from \p rng, so every PI has a deterministic
/// value — nothing is inherited from whatever pattern occupied the word
/// before), patterns 1..63 flip one random PI each (1-distance
/// neighbours, cf. Mishchenko et al.): the neighbourhood patterns split
/// many classes per disproof and keep sweeping tractable. \p rng must be
/// freshly seeded per witness (Sweeper::witness_seed) to keep witnesses
/// history-independent.
std::vector<sim::PatternWord> build_witness_words(const net::Network& network,
                                                  const sat::CnfEncoder& encoder,
                                                  const sat::Solver& solver,
                                                  util::Rng& rng) {
  const std::size_t num_pis = network.num_pis();
  std::vector<sim::PatternWord> words(num_pis, 0);
  for (std::size_t i = 0; i < num_pis; ++i) {
    const net::NodeId pi = network.pis()[i];
    const bool bit = encoder.is_encoded(pi)
                         ? solver.model_value(encoder.var_of(pi))
                         : rng.flip();
    if (bit) words[i] = ~sim::PatternWord{0};
  }
  if (num_pis > 0) {
    for (unsigned pattern = 1; pattern < 64; ++pattern) {
      const std::size_t flip = rng.below(num_pis);
      words[flip] ^= sim::PatternWord{1} << pattern;
    }
  }
  return words;
}

/// Structural fingerprint of the combined transitive-fanin cone of up to
/// two roots — the shape handed to the SAT solver for one call, journaled
/// so the hardness report can correlate solve cost with cone structure.
struct ConeFingerprint {
  std::uint64_t support = 0;  ///< Distinct PIs in the cone.
  std::uint64_t nodes = 0;    ///< Distinct internal (LUT) nodes, roots included.
  std::uint64_t depth = 0;    ///< Max logic level over the roots.
};

/// Walks the combined fanin cone of \p a (and \p b unless kNullNode).
ConeFingerprint fingerprint_cone(const net::Network& network, net::NodeId a,
                                 net::NodeId b) {
  ConeFingerprint fp;
  std::vector<bool> visited(network.num_nodes(), false);
  std::vector<net::NodeId> stack;
  const auto push_root = [&](net::NodeId root) {
    if (root == net::kNullNode) return;
    stack.push_back(root);
    const std::uint64_t level = network.level(root);
    if (level > fp.depth) fp.depth = level;
  };
  push_root(a);
  push_root(b);
  while (!stack.empty()) {
    const net::NodeId node = stack.back();
    stack.pop_back();
    if (visited[node]) continue;
    visited[node] = true;
    if (network.is_pi(node)) {
      ++fp.support;
      continue;
    }
    if (network.is_constant(node)) continue;
    if (network.is_lut(node)) ++fp.nodes;
    for (const net::NodeId fanin : network.fanins(node)) stack.push_back(fanin);
  }
  return fp;
}

}  // namespace

Sweeper::Sweeper(const net::Network& network, SweepOptions options)
    : network_(network),
      options_(options),
      certifier_(options.certify ? std::make_unique<check::Certifier>(solver_)
                                 : nullptr),
      encoder_(network, solver_) {
  solver_.set_conflict_limit(options_.conflict_limit);
}

void Sweeper::certify_unsat(std::span<const sat::Lit> assumptions,
                            std::uint64_t journal_a, std::uint64_t journal_b,
                            bool output_proof) {
  if (!certifier_) return;
  const bool journal = obs::journal_enabled();
  std::uint64_t lemmas0 = 0, rups0 = 0, props0 = 0;
  util::Stopwatch watch;
  if (journal) {
    const check::DratStats& stats = certifier_->stats();
    lemmas0 = stats.checked_lemmas.value();
    rups0 = stats.rup_checks.value();
    props0 = stats.propagations.value();
    watch.start();
  }
  const bool ok = certifier_->certify_unsat(assumptions);
  if (journal) {
    const check::DratStats& stats = certifier_->stats();
    obs::journal_emit(obs::EventKind::kCertified, ok ? 1 : 0, journal_a,
                      journal_b, stats.checked_lemmas.value() - lemmas0,
                      stats.rup_checks.value() - rups0,
                      stats.propagations.value() - props0, 0,
                      obs::saturate_us(watch.seconds()),
                      output_proof ? 1 : 0);
  }
  if (!ok)
    throw std::logic_error(
        "sweeper: UNSAT verdict failed DRAT certification");
  ++totals_.certified_unsat;
}

Sweeper::SatCall Sweeper::solve_call(net::NodeId a, net::NodeId b) {
  const bool output_proof = b == net::kNullNode;
  const std::uint64_t key_b = output_proof ? 0 : b;
  // Solver cost baselines for the journal's per-call deltas; the
  // num_vars delta across encode+solve is the newly encoded cone size.
  const bool journal = obs::journal_enabled();
  std::uint64_t conflicts0 = 0, props0 = 0, decisions0 = 0, learned0 = 0;
  std::uint64_t vars0 = 0;
  if (journal) {
    const sat::SolverStats& stats = solver_.stats();
    conflicts0 = stats.conflicts.value();
    props0 = stats.propagations.value();
    decisions0 = stats.decisions.value();
    learned0 = stats.learned_clauses.value();
    vars0 = solver_.num_vars();
  }

  SatCall call;
  const sat::Var var_a = encoder_.ensure_encoded(a);
  if (output_proof) {
    call.assumption = sat::pos(var_a);
  } else {
    // Fresh miter variable t <-> (a xor b); one solve call per pair, as
    // the paper counts SAT calls.
    const sat::Var var_b = encoder_.ensure_encoded(b);
    const sat::Var t = solver_.new_var();
    solver_.add_clause({sat::neg(t), sat::pos(var_a), sat::pos(var_b)});
    solver_.add_clause({sat::neg(t), sat::neg(var_a), sat::neg(var_b)});
    solver_.add_clause({sat::pos(t), sat::pos(var_a), sat::neg(var_b)});
    solver_.add_clause({sat::pos(t), sat::neg(var_a), sat::pos(var_b)});
    call.assumption = sat::pos(t);
  }

  if (journal) {
    const ConeFingerprint fp = fingerprint_cone(network_, a, b);
    obs::journal_emit(obs::EventKind::kConeFingerprint, options_.strategy_code,
                      a, key_b, fp.support, fp.nodes, fp.depth, 0, 0,
                      output_proof ? 1 : 0);
  }
#ifndef SIMGEN_NO_TELEMETRY
  solver_.set_introspection_context(a, key_b, output_proof);
#endif
  util::Stopwatch watch;
  watch.start();
  call.verdict = solver_.solve({call.assumption});
  watch.stop();
#ifndef SIMGEN_NO_TELEMETRY
  solver_.clear_introspection_context();
#endif
  call.seconds = watch.seconds();

  if (journal) {
    const sat::SolverStats& stats = solver_.stats();
    obs::journal_emit(
        obs::EventKind::kSatCall,
        static_cast<std::uint8_t>(to_verdict(call.verdict)), a, key_b,
        stats.conflicts.value() - conflicts0,
        stats.propagations.value() - props0,
        stats.decisions.value() - decisions0,
        obs::pack_cone_learned(solver_.num_vars() - vars0,
                               stats.learned_clauses.value() - learned0),
        obs::saturate_us(call.seconds), output_proof ? 1 : 0);
  }
  return call;
}

sat::Result Sweeper::check_pair(net::NodeId a, net::NodeId b) {
  const SatCall call = solve_call(a, b);
  ++totals_.sat_calls;
  totals_.sat_seconds += call.seconds;

  switch (call.verdict) {
    case sat::Result::kUnsat: {
      // Certify before trusting: the merge (and the equality clauses
      // strengthening later proofs, fraig-style) must rest on a checked
      // derivation.
      certify_unsat({&call.assumption, 1}, a, b);
      if (obs::journal_enabled())
        obs::journal_emit(obs::EventKind::kClassMerged, 0, a, b);
      ++totals_.proven_equivalent;
      totals_.proven_pairs.emplace_back(a, b);
      const sat::Var var_a = encoder_.var_of(a);
      const sat::Var var_b = encoder_.var_of(b);
      solver_.add_clause({sat::pos(var_a), sat::neg(var_b)});
      solver_.add_clause({sat::neg(var_a), sat::pos(var_b)});
      // The t-miter of a proven pair is dead weight; pin it false so the
      // solver never branches on it again.
      solver_.add_clause({~call.assumption});
      break;
    }
    case sat::Result::kSat:
      ++totals_.disproven;
      break;
    case sat::Result::kUnknown:
      ++totals_.unresolved;
      solver_.add_clause({~call.assumption});
      break;
  }
  return call.verdict;
}

std::uint64_t Sweeper::witness_seed(std::uint64_t a,
                                    std::uint64_t b) const noexcept {
  return util::splitmix64(options_.seed ^ 0x5feeb001dull) ^
         util::splitmix64((a + 1) * 0x9e3779b97f4a7c15ull) ^
         util::splitmix64((b + 2) * 0xbf58476d1ce4e5b9ull);
}

std::vector<bool> Sweeper::last_model_vector(std::uint64_t salt) {
  util::Rng rng(witness_seed(salt, ~std::uint64_t{0}));
  std::vector<bool> vector(network_.num_pis());
  for (std::size_t i = 0; i < network_.num_pis(); ++i) {
    const net::NodeId pi = network_.pis()[i];
    vector[i] = encoder_.is_encoded(pi)
                    ? solver_.model_value(encoder_.var_of(pi))
                    : rng.flip();
  }
  return vector;
}

void Sweeper::resimulate_counterexample(
    std::span<const sim::PatternWord> pi_words, sim::EquivClasses& classes,
    sim::Simulator& simulator) {
  {
    obs::PatternScope scope(obs::PatternSource::kCounterexample, 1);
    simulator.simulate_word(pi_words);
    classes.refine(simulator.values());
  }
  ++totals_.resimulations;
}

SweepResult Sweeper::run(sim::EquivClasses& classes, sim::Simulator& simulator) {
  obs::PhaseScope phase(obs::PhaseId::kSweep);
  const SweepResult before = totals_;

  // Live progress, readable by the heartbeat below and by the watchdog
  // thread's state dump.
  obs::SweepProgress& progress = obs::sweep_progress();
  const std::uint64_t initial_live = classes.num_live_nodes();
  progress.begin(initial_live, classes.num_classes());
  util::Stopwatch watch;
  watch.start();
  double next_heartbeat = options_.progress_interval;

  while (!classes.fully_refined()) {
    // Prove pairs in topological order (shallowest candidate first), the
    // fraig sweep schedule: equality clauses learned for shallow pairs
    // become lemmas that keep the deep miters tractable.
    sim::ClassId best_class{0};
    net::NodeId best_candidate = net::kNullNode;
    for (sim::ClassId c{0}; c < classes.num_classes(); ++c) {
      const net::NodeId candidate_here = classes.class_members(c)[1];
      if (candidate_here < best_candidate) {
        best_candidate = candidate_here;
        best_class = c;
      }
    }
    const auto members = classes.class_members(best_class);
    const net::NodeId representative = members[0];
    const net::NodeId candidate = members[1];
    const sat::Result verdict = check_pair(representative, candidate);
    switch (verdict) {
      case sat::Result::kUnsat:
        // Proven equivalent: merge the candidate into the representative.
        classes.remove_node(candidate);
        break;
      case sat::Result::kSat: {
        // Counterexample: by construction it distinguishes the pair, so
        // refinement is guaranteed to make progress on this class. The
        // witness stream is keyed per pair, never by sweep history.
        util::Rng rng(witness_seed(representative, candidate));
        resimulate_counterexample(
            build_witness_words(network_, encoder_, solver_, rng),
            classes, simulator);
        break;
      }
      case sat::Result::kUnknown:
        classes.remove_node(candidate);
        break;
    }

    const std::uint64_t live = classes.num_live_nodes();
    const std::uint64_t resolved = initial_live - live;
    progress.live_nodes.store(live, std::memory_order_relaxed);
    progress.classes_live.store(classes.num_classes(), std::memory_order_relaxed);
    progress.resolved_nodes.store(resolved, std::memory_order_relaxed);
    progress.proved.store(totals_.proven_equivalent - before.proven_equivalent,
                          std::memory_order_relaxed);
    progress.disproved.store(totals_.disproven - before.disproven,
                             std::memory_order_relaxed);
    progress.unresolved.store(totals_.unresolved - before.unresolved,
                              std::memory_order_relaxed);
    progress.sat_calls.store(totals_.sat_calls - before.sat_calls,
                             std::memory_order_relaxed);

    if (options_.progress_interval > 0.0 &&
        watch.seconds() >= next_heartbeat) {
      const double elapsed = watch.seconds();
      while (next_heartbeat <= elapsed) next_heartbeat += options_.progress_interval;
      const double rate = resolved > 0 ? static_cast<double>(resolved) / elapsed : 0.0;
      const double eta = rate > 0.0 ? static_cast<double>(live) / rate : 0.0;
      util::infof(
          "sweep: %zu classes live, %llu/%llu nodes resolved, "
          "proved %llu, disproved %llu, %llu SAT calls, %.1fs elapsed, "
          "ETA %.1fs",
          classes.num_classes(), static_cast<unsigned long long>(resolved),
          static_cast<unsigned long long>(initial_live),
          static_cast<unsigned long long>(totals_.proven_equivalent -
                                          before.proven_equivalent),
          static_cast<unsigned long long>(totals_.disproven - before.disproven),
          static_cast<unsigned long long>(totals_.sat_calls - before.sat_calls),
          elapsed, eta);
#ifndef SIMGEN_NO_TELEMETRY
      const obs::ResourceSample res = obs::sample_resources();
      util::infof("sweep: rss %.1f MB (peak %.1f MB)",
                  static_cast<double>(res.current_rss_kb) / 1024.0,
                  static_cast<double>(res.peak_rss_kb) / 1024.0);
#endif
      if (obs::journal_enabled()) {
        obs::journal_emit(
            obs::EventKind::kHeartbeat, 0, live, resolved,
            classes.num_classes(),
            totals_.proven_equivalent - before.proven_equivalent,
            totals_.disproven - before.disproven,
            totals_.sat_calls - before.sat_calls, obs::saturate_us(elapsed));
#ifndef SIMGEN_NO_TELEMETRY
        obs::journal_emit(obs::EventKind::kResourceSample, 0,
                          res.current_rss_kb, res.peak_rss_kb);
#endif
        // Keep the on-disk journal near-complete so a kill right after a
        // heartbeat loses almost nothing.
        obs::Journal::instance().flush();
      }
    }
  }

  progress.end();
  phase.set_result(classes.cost(), classes.num_classes());
  return delta_since(before);
}

SweepResult Sweeper::delta_since(const SweepResult& before) const {
  SweepResult delta = totals_;
  delta.sat_calls -= before.sat_calls;
  delta.proven_equivalent -= before.proven_equivalent;
  delta.disproven -= before.disproven;
  delta.unresolved -= before.unresolved;
  delta.certified_unsat -= before.certified_unsat;
  delta.sat_seconds -= before.sat_seconds;
  delta.resimulations -= before.resimulations;
  delta.proven_pairs.erase(delta.proven_pairs.begin(),
                           delta.proven_pairs.begin() +
                               static_cast<std::ptrdiff_t>(before.proven_pairs.size()));
  return delta;
}

}  // namespace simgen::sweep
