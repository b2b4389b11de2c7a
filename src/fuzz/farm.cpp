#include "fuzz/farm.h"

#include <chrono>
#include <random>

#include "fuzz/program_gen.h"

namespace cabt::fuzz {

namespace {

/// Generator seeds used to bootstrap an empty corpus.
constexpr size_t kBootstrapSeeds = 4;

uint64_t nowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Failure signature: the mismatch up to the first ':' — the failing
/// comparison and its configuration, without run-specific numbers.
std::string signatureOf(const std::string& mismatch) {
  const size_t colon = mismatch.find(':');
  return colon == std::string::npos ? mismatch : mismatch.substr(0, colon);
}

/// True when the reduction still fails the oracle the way the original
/// finding did: valid (assembles, reference halts), mismatched, and
/// with the same failure signature. Without the signature check the
/// minimizer can wander from the original bug onto an unrelated
/// degenerate failure and "minimize" into a different finding.
bool stillFails(const SeedCase& c, const OracleOptions& opts,
                const std::string& signature, uint64_t* trials) {
  ++*trials;
  const OracleResult r = runOracle(c, opts, nullptr, nullptr);
  return r.valid && !r.ok && signatureOf(r.mismatch) == signature;
}

/// Chunk-removal barrier: labels and assembler directives are program
/// structure. Deleting one (say the `.bss` switch while its data lines
/// survive) yields a structurally different program whose failures have
/// nothing to do with the finding being minimized.
bool isStructureLine(const std::string& line) {
  if (line.find(':') != std::string::npos) {
    return true;
  }
  for (const char ch : line) {
    if (ch == ' ' || ch == '\t') {
      continue;
    }
    return ch == '.';
  }
  return false;
}

}  // namespace

SeedCase minimizeCase(const SeedCase& failing, const OracleOptions& opts,
                      unsigned budget, uint64_t* trials) {
  uint64_t local_trials = 0;
  uint64_t* t = trials != nullptr ? trials : &local_trials;
  SeedCase best = failing;

  // The signature every accepted reduction must reproduce.
  uint64_t probe_trials = 0;
  const OracleResult orig = runOracle(failing, opts, nullptr, nullptr);
  ++probe_trials;
  *t += probe_trials;
  if (!orig.valid || orig.ok) {
    return best;  // not a finding (raced away?): nothing to minimize
  }
  const std::string signature = signatureOf(orig.mismatch);

  // Phase 1: drop faults one at a time until none can go.
  bool shrunk = true;
  while (shrunk && *t < budget) {
    shrunk = false;
    for (size_t i = 0; i < best.faults.size() && *t < budget; ++i) {
      SeedCase c = best;
      c.faults.erase(c.faults.begin() + static_cast<ptrdiff_t>(i));
      if (stillFails(c, opts, signature, t)) {
        best = std::move(c);
        shrunk = true;
        break;
      }
    }
  }

  // Phase 2: drop whole programs (fewer cores = simpler board).
  shrunk = true;
  while (shrunk && best.programs.size() > 1 && *t < budget) {
    shrunk = false;
    for (size_t i = 0; i < best.programs.size() && *t < budget; ++i) {
      SeedCase c = best;
      c.programs.erase(c.programs.begin() + static_cast<ptrdiff_t>(i));
      if (stillFails(c, opts, signature, t)) {
        best = std::move(c);
        shrunk = true;
        break;
      }
    }
  }

  // Phase 3: per program, remove line chunks, halving the chunk size
  // down to single lines (ddmin-lite). Chunks containing labels or
  // directives are never candidates (structure barrier); reductions
  // that break assembly come back invalid and are rejected cheaply.
  for (size_t p = 0; p < best.programs.size(); ++p) {
    std::vector<std::string> lines = splitLines(best.programs[p]);
    const auto removable = [&lines](size_t at, size_t chunk) {
      for (size_t i = at; i < at + chunk; ++i) {
        if (isStructureLine(lines[i])) {
          return false;
        }
      }
      return true;
    };
    size_t chunk = lines.size() / 2;
    while (chunk >= 1 && *t < budget) {
      bool removed = false;
      for (size_t at = 0; at + chunk <= lines.size() && *t < budget;) {
        if (!removable(at, chunk)) {
          ++at;
          continue;
        }
        std::vector<std::string> fewer = lines;
        fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(at),
                    fewer.begin() + static_cast<ptrdiff_t>(at + chunk));
        SeedCase c = best;
        c.programs[p] = joinLines(fewer);
        if (stillFails(c, opts, signature, t)) {
          lines = std::move(fewer);
          best = std::move(c);
          removed = true;
          // Do not advance: the next chunk slid into this position.
        } else {
          at += chunk;
        }
      }
      if (chunk == 1 && !removed) {
        break;
      }
      chunk = chunk > 1 ? chunk / 2 : 1;
    }
  }

  // Phase 4: a fork-free, fault-free reproduction replays simplest.
  if ((best.fork_cycle != 0 || best.horizon != 0) && *t < budget) {
    SeedCase c = best;
    c.fork_cycle = 0;
    c.horizon = 0;
    if (stillFails(c, opts, signature, t)) {
      best = std::move(c);
    }
  }
  return best;
}

FarmStats Farm::run() {
  const uint64_t t0 = nowMillis();
  stats_ = FarmStats{};
  Corpus corpus(config_.corpus_dir);
  SnapshotCache cache;
  SnapshotCache* cache_ptr = config_.use_forks ? &cache : nullptr;
  core::EdgeCoverage global_cov;
  std::mt19937 rng(config_.seed);
  Mutator mutator(config_.seed ^ 0x9e3779b9u);

  const auto out_of_budget = [&] {
    if (config_.max_candidates != 0 &&
        stats_.candidates >= config_.max_candidates) {
      return true;
    }
    if (config_.max_execs != 0 && stats_.oracle_execs >= config_.max_execs) {
      return true;
    }
    if (config_.max_millis != 0 &&
        nowMillis() - t0 >= config_.max_millis) {
      return true;
    }
    return config_.max_findings != 0 &&
           stats_.findings >= config_.max_findings;
  };

  const auto reportFinding = [&](const SeedCase& c,
                                 const std::string& mismatch) {
    ++stats_.findings;
    SeedCase minimized = c;
    if (config_.minimize) {
      minimized = minimizeCase(c, config_.oracle, config_.minimize_budget,
                               &stats_.minimize_trials);
    }
    minimized.note = "finding: " + mismatch;
    stats_.finding_mismatches.push_back(mismatch);
    if (!config_.findings_dir.empty()) {
      Corpus findings(config_.findings_dir);
      stats_.finding_paths.push_back(findings.add(minimized, "finding"));
    }
  };

  // ---- bootstrap an empty corpus from the program generator ----------
  if (corpus.size() == 0) {
    for (size_t i = 0; i < kBootstrapSeeds; ++i) {
      SeedCase c;
      // Two of three bootstrap shapes are single-core without shared
      // traffic, keeping the three-way (rtl + translator) legs hot.
      const size_t cores = i % 3 == 2 ? 2 + i % 2 : 1;
      for (size_t core = 0; core < cores; ++core) {
        ProgramGenerator gen(GeneratorConfig{
            config_.seed + static_cast<uint32_t>(i * 1000 + core * 17),
            /*shared_traffic=*/cores > 1});
        c.programs.push_back(gen.generate());
      }
      c.note = "bootstrap " + describe(GeneratorConfig{
                                  config_.seed + static_cast<uint32_t>(i * 1000),
                                  cores > 1}) +
               " cores=" + std::to_string(cores);
      corpus.add(c, "boot");
    }
  }

  // ---- admission pass: oracle every corpus entry, seed the coverage
  // map, stamp horizons and fork cycles ---------------------------------
  std::vector<SeedCase> entries;
  for (const std::string& path : corpus.paths()) {
    if (out_of_budget()) {
      break;
    }
    SeedCase c = loadSeedFile(path);
    core::EdgeCoverage scratch;
    const OracleResult r =
        runOracle(c, config_.oracle, cache_ptr, &scratch);
    stats_.oracle_execs += r.executions;
    if (!r.valid) {
      ++stats_.invalid;
      continue;
    }
    global_cov.merge(scratch);
    if (!r.ok) {
      reportFinding(c, r.mismatch);
      continue;  // a failing entry is a finding, not a mutation base
    }
    c.horizon = r.ref_cycles;
    if (config_.use_forks && c.fork_cycle == 0 && r.ref_cycles > 400) {
      c.fork_cycle = r.ref_cycles / 2;
    }
    entries.push_back(std::move(c));
  }

  // ---- the mutate/oracle loop ----------------------------------------
  while (!entries.empty() && !out_of_budget()) {
    const SeedCase& base =
        entries[rng() % static_cast<uint32_t>(entries.size())];
    const std::optional<SeedCase> mutant = mutator.mutate(base);
    ++stats_.candidates;
    if (!mutant.has_value()) {
      ++stats_.invalid;
      continue;
    }
    core::EdgeCoverage scratch;
    const OracleResult r =
        runOracle(*mutant, config_.oracle, cache_ptr, &scratch);
    stats_.oracle_execs += r.executions;
    if (!r.valid) {
      ++stats_.invalid;
      continue;
    }
    if (!r.ok) {
      reportFinding(*mutant, r.mismatch);
      continue;
    }
    if (global_cov.newBits(scratch) > 0) {
      global_cov.merge(scratch);
      SeedCase admitted = *mutant;
      admitted.horizon = r.ref_cycles;
      if (config_.use_forks && admitted.fork_cycle == 0 &&
          r.ref_cycles > 400) {
        admitted.fork_cycle = r.ref_cycles / 2;
      }
      if (admitted.note.empty()) {
        admitted.note = "coverage: " + mutator.lastOperator();
      }
      corpus.add(admitted, "auto");
      ++stats_.corpus_adds;
      entries.push_back(std::move(admitted));
    }
  }

  stats_.corpus_entries = corpus.size();
  stats_.coverage_bits = global_cov.bitsSet();
  stats_.fork_hits = cache.hits();
  stats_.fork_misses = cache.misses();
  stats_.elapsed_millis = nowMillis() - t0;
  stats_.execs_per_sec =
      stats_.elapsed_millis > 0
          ? static_cast<double>(stats_.oracle_execs) * 1000.0 /
                static_cast<double>(stats_.elapsed_millis)
          : 0.0;
  return stats_;
}

void Farm::publishMetrics(obs::MetricsRegistry& reg,
                          const std::string& prefix) const {
  reg.setCounter(prefix + "candidates", stats_.candidates);
  reg.setCounter(prefix + "invalid", stats_.invalid);
  reg.setCounter(prefix + "oracle_execs", stats_.oracle_execs);
  reg.setCounter(prefix + "corpus_entries", stats_.corpus_entries);
  reg.setCounter(prefix + "corpus_adds", stats_.corpus_adds);
  reg.setCounter(prefix + "findings", stats_.findings);
  reg.setCounter(prefix + "coverage_bits", stats_.coverage_bits);
  reg.setCounter(prefix + "fork_hits", stats_.fork_hits);
  reg.setCounter(prefix + "fork_misses", stats_.fork_misses);
  reg.setCounter(prefix + "minimize_trials", stats_.minimize_trials);
  reg.setCounter(prefix + "elapsed_millis", stats_.elapsed_millis);
  reg.setGauge(prefix + "execs_per_sec", stats_.execs_per_sec);
}

}  // namespace cabt::fuzz
