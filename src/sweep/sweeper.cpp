#include "sweep/sweeper.hpp"

#include <span>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/pool_obs.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
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
/// before), patterns 1..63 optionally flip one random PI each (1-distance
/// neighbours, cf. Mishchenko et al.). \p rng must be freshly seeded per
/// witness (Sweeper::witness_seed) to keep witnesses history-independent.
std::vector<sim::PatternWord> build_witness_words(const net::Network& network,
                                                  const sat::CnfEncoder& encoder,
                                                  const sat::Solver& solver,
                                                  bool distance_one_fill,
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
  if (distance_one_fill && num_pis > 0) {
    for (unsigned pattern = 1; pattern < 64; ++pattern) {
      const std::size_t flip = rng.below(num_pis);
      words[flip] ^= sim::PatternWord{1} << pattern;
    }
  }
  return words;
}

}  // namespace

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

void emit_cone_fingerprint(const net::Network& network, net::NodeId root_a,
                           net::NodeId root_b, std::uint64_t journal_a,
                           std::uint64_t journal_b, std::uint8_t strategy_code,
                           bool output_proof) {
  if (!obs::journal_enabled()) return;
  const ConeFingerprint fp = fingerprint_cone(network, root_a, root_b);
  obs::journal_emit(obs::EventKind::kConeFingerprint, strategy_code, journal_a,
                    journal_b, fp.support, fp.nodes, fp.depth, 0, 0,
                    output_proof ? 1 : 0);
}

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
  static obs::Counter& certified = obs::counter("sweep.certified_unsat");
  certified.inc();
}

sat::Result Sweeper::check_pair(net::NodeId a, net::NodeId b) {
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

  const sat::Var var_a = encoder_.ensure_encoded(a);
  const sat::Var var_b = encoder_.ensure_encoded(b);

  // Fresh miter variable t <-> (a xor b); one solve call per pair, as the
  // paper counts SAT calls.
  const sat::Var t = solver_.new_var();
  solver_.add_clause({sat::neg(t), sat::pos(var_a), sat::pos(var_b)});
  solver_.add_clause({sat::neg(t), sat::neg(var_a), sat::neg(var_b)});
  solver_.add_clause({sat::pos(t), sat::pos(var_a), sat::neg(var_b)});
  solver_.add_clause({sat::pos(t), sat::neg(var_a), sat::pos(var_b)});

  emit_cone_fingerprint(network_, a, b, a, b, options_.strategy_code,
                        /*output_proof=*/false);
#ifndef SIMGEN_NO_TELEMETRY
  solver_.set_introspection_context(a, b, /*output_proof=*/false);
#endif
  util::Stopwatch watch;
  watch.start();
  sat::Result verdict;
  {
    obs::Span solve_span("sweep.sat_solve");
    // The solver's counter runs across the whole sweep; the span reports
    // this call's share, like the kSatCall event.
    const std::uint64_t conflicts_before = solver_.stats().conflicts.value();
    verdict = solver_.solve({sat::pos(t)});
    solve_span.arg("conflicts",
                   static_cast<double>(solver_.stats().conflicts.value() -
                                       conflicts_before));
  }
  watch.stop();
#ifndef SIMGEN_NO_TELEMETRY
  solver_.clear_introspection_context();
#endif
  ++totals_.sat_calls;
  totals_.sat_seconds += watch.seconds();
  static obs::Counter& sat_calls = obs::counter("sweep.sat_calls");
  sat_calls.inc();

  if (journal) {
    const sat::SolverStats& stats = solver_.stats();
    obs::journal_emit(
        obs::EventKind::kSatCall,
        static_cast<std::uint8_t>(to_verdict(verdict)), a, b,
        stats.conflicts.value() - conflicts0,
        stats.propagations.value() - props0,
        stats.decisions.value() - decisions0,
        obs::pack_cone_learned(solver_.num_vars() - vars0,
                               stats.learned_clauses.value() - learned0),
        obs::saturate_us(watch.seconds()));
  }

  switch (verdict) {
    case sat::Result::kUnsat: {
      // Certify before trusting: the merge (and the equality clauses
      // strengthening later proofs) must rest on a checked derivation.
      const sat::Lit assumption = sat::pos(t);
      certify_unsat({&assumption, 1}, a, b);
      if (journal) obs::journal_emit(obs::EventKind::kClassMerged, 0, a, b);
      ++totals_.proven_equivalent;
      totals_.proven_pairs.emplace_back(a, b);
      static obs::Counter& proven = obs::counter("sweep.proven");
      proven.inc();
      if (options_.add_equality_clauses) {
        solver_.add_clause({sat::pos(var_a), sat::neg(var_b)});
        solver_.add_clause({sat::neg(var_a), sat::pos(var_b)});
        static obs::Counter& eq_clauses = obs::counter("sweep.equality_clauses");
        eq_clauses.inc(2);
      }
      // The t-miter of a proven pair is dead weight; pin it false so the
      // solver never branches on it again.
      solver_.add_clause({sat::neg(t)});
      break;
    }
    case sat::Result::kSat: {
      ++totals_.disproven;
      static obs::Counter& disproven = obs::counter("sweep.disproven");
      disproven.inc();
      break;
    }
    case sat::Result::kUnknown: {
      ++totals_.unresolved;
      static obs::Counter& unresolved = obs::counter("sweep.unresolved");
      unresolved.inc();
      solver_.add_clause({sat::neg(t)});
      break;
    }
  }
  return verdict;
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
    classes.refine(simulator);
  }
  ++totals_.resimulations;
  static obs::Counter& resims = obs::counter("sweep.resimulations");
  resims.inc();
  obs::Tracer::instance().instant("sweep.counterexample");
}

SweepResult Sweeper::run(sim::EquivClasses& classes, sim::Simulator& simulator) {
  obs::Span span("sweep.run");
  obs::PhaseScope phase(obs::PhaseId::kSweep);
  span.arg("classes_in", static_cast<double>(classes.num_classes()));
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
            build_witness_words(network_, encoder_, solver_,
                                options_.distance_one_fill, rng),
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
      const obs::ResourceSample res = obs::sample_resource_gauges();
      util::infof("sweep: rss %.1f MB (peak %.1f MB), pool queue depth %llu",
                  static_cast<double>(res.current_rss_kb) / 1024.0,
                  static_cast<double>(res.peak_rss_kb) / 1024.0,
                  static_cast<unsigned long long>(
                      obs::current_pool_queue_depth()));
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
                          res.current_rss_kb, res.peak_rss_kb, res.alloc_count,
                          res.alloc_bytes);
#endif
        // Keep the on-disk journal near-complete so a kill right after a
        // heartbeat loses almost nothing.
        obs::Journal::instance().flush();
      }
    }
  }

  progress.end();
  phase.set_result(classes.cost(), classes.num_classes());
  span.arg("sat_calls",
           static_cast<double>(totals_.sat_calls - before.sat_calls));
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
