/// \file test_repros.cpp
/// \brief Regression suite over committed fuzz repro artifacts.
///
/// Every bug the fuzz campaign finds lands here as a shrunken,
/// self-contained .blif under tests/repros/ (see the artifact's comment
/// header for provenance). This test replays each artifact through the
/// full oracle set — all six strategy arms, the certified plain SAT
/// miter, the BDD engine, and the serializer round trips — and demands
/// that every oracle passes: a regression re-opens the original
/// disagreement and fails the corresponding oracle.
///
/// Current artifacts:
///  * bench_const_undefined.blif — the BENCH writer referenced canonical
///    constant nodes it never defined ("bench: undefined signal");
///    fixed by the CONST0()/CONST1() zero-operand gate extension.
///  * drat_clause_permutation.blif — the DRAT checker's RUP propagation
///    permutes stored clauses in place, and clause deletion failed to
///    recognize permuted clauses (order-dependent hash + exact vector
///    compare), flagging sound proofs as corrupt on any instance big
///    enough to trigger learnt-clause reduction.
///  * witness_stale_lanes.blif — counterexample resimulation drew its
///    witness fill bits from shared sweeper state (so witness bytes
///    depended on what was disproven earlier) and the batched wide
///    resimulation staging could carry stale pattern lanes between
///    batches; four random-resistant near-miss pairs force back-to-back
///    SAT disproofs with an UNSAT merge in between, and the replay's
///    const-0 pair leg checks every pair oracle's verdict and
///    counterexample on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/oracle.hpp"
#include "io/blif.hpp"

namespace simgen::fuzz {
namespace {

#ifndef SIMGEN_REPRO_DIR
#error "SIMGEN_REPRO_DIR must point at tests/repros"
#endif

std::vector<std::filesystem::path> repro_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SIMGEN_REPRO_DIR)) {
    if (entry.path().extension() == ".blif") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Seed recorded in the artifact's "# seed: N" header line (1 if absent).
std::uint64_t artifact_seed(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# seed: ", 0) == 0)
      return std::stoull(line.substr(8));
    if (!line.empty() && line[0] != '#') break;
  }
  return 1;
}

TEST(Repros, DirectoryIsNotEmpty) { EXPECT_FALSE(repro_files().empty()); }

TEST(Repros, EveryArtifactPassesAllOracles) {
  for (const std::filesystem::path& path : repro_files()) {
    SCOPED_TRACE(path.filename().string());
    const net::Network network = io::read_blif_file(path.string());
    const std::vector<OracleResult> results =
        replay_network(network, artifact_seed(path));
    EXPECT_FALSE(results.empty());
    for (const OracleResult& result : results)
      EXPECT_TRUE(result.pass)
          << path.filename().string() << ": " << result.name
          << " regressed: " << result.detail;
  }
}

}  // namespace
}  // namespace simgen::fuzz
