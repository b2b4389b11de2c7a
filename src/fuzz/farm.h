// The coverage-guided differential fuzzing farm (DESIGN.md section 13).
//
// One Farm::run() call is one campaign: bootstrap (or load) a corpus,
// then repeatedly pick an entry, mutate it (src/fuzz/mutator.h), run
// the mutant through the three-way oracle (src/fuzz/oracle.h) and
//   * discard it when invalid (does not assemble / reference spins),
//   * report it when the oracle disagrees — the finding is minimized
//     (greedy delta-debugging over faults, programs and program lines,
//     every reduction re-verified against the oracle) and written to
//     the findings directory as a self-contained regression seed that
//     tests/fuzz_regression_test.cpp replays forever,
//   * admit it into the corpus when it lights edge-coverage map bits
//     (core/coverage.h) the campaign has never seen.
//
// Corpus entries get their measured clean-run length stamped as the
// mutation horizon, so state mutations land inside the run.
//
// Determinism: one (corpus, seed, budget) triple always walks the same
// candidate sequence — wall-clock budgets only cut the walk short, they
// never reorder it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "obs/metrics.h"

namespace cabt::fuzz {

struct FarmConfig {
  /// Corpus directory (created when absent; new entries are written
  /// here — point the farm at a scratch copy, not a checked-in tree).
  std::string corpus_dir;
  /// Where minimized findings land as seed files; empty keeps findings
  /// in memory only (FarmStats::finding_paths stays empty).
  std::string findings_dir;
  uint32_t seed = 1;
  /// Stop conditions; 0 = unbounded. Candidates counts mutants tried,
  /// execs counts oracle engine runs, millis is wall clock.
  uint64_t max_candidates = 0;
  uint64_t max_execs = 0;
  uint64_t max_millis = 0;
  /// Stop after this many findings (each costs a minimization pass).
  uint64_t max_findings = 8;
  /// Minimize findings before writing them.
  bool minimize = true;
  /// Oracle runs the minimizer may spend per finding.
  unsigned minimize_budget = 120;
  OracleOptions oracle;
};

struct FarmStats {
  uint64_t candidates = 0;     ///< mutants produced
  uint64_t invalid = 0;        ///< discarded before comparison
  uint64_t oracle_execs = 0;   ///< engine runs (grid boards + extras)
  uint64_t corpus_entries = 0;
  uint64_t corpus_adds = 0;    ///< coverage-admitted mutants
  uint64_t findings = 0;
  uint64_t coverage_bits = 0;  ///< distinct edge-map bits lit
  /// Always 0: candidates replay from reset. Kept for bench/e2e, which
  /// still reads them.
  uint64_t fork_hits = 0;
  uint64_t fork_misses = 0;
  uint64_t minimize_trials = 0;
  uint64_t elapsed_millis = 0;
  double execs_per_sec = 0.0;
  std::vector<std::string> finding_paths;
  /// Mismatch strings of every finding, parallel to finding_paths when
  /// findings are written.
  std::vector<std::string> finding_mismatches;
};

/// Greedy minimization: drops faults, then whole programs, then line
/// chunks (halving chunk sizes down to single lines; label and
/// directive lines are never removed), re-running the oracle after each
/// reduction and keeping it only when the case still fails with the
/// same mismatch signature as the original finding, and finally clears
/// the horizon. Consumes at most `budget` oracle runs; `trials`
/// (optional) returns how many were spent.
SeedCase minimizeCase(const SeedCase& failing, const OracleOptions& opts,
                      unsigned budget, uint64_t* trials = nullptr);

class Farm {
 public:
  explicit Farm(FarmConfig config) : config_(std::move(config)) {}

  /// Runs one campaign to its budget; returns the stats (also kept for
  /// publishMetrics).
  FarmStats run();

  /// Publishes fuzz.* counters/gauges from the last run().
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "fuzz.") const;

  [[nodiscard]] const FarmStats& stats() const { return stats_; }

 private:
  FarmConfig config_;
  FarmStats stats_;
};

}  // namespace cabt::fuzz
