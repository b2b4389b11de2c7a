// Driver for the differential fuzzing farm (src/fuzz, DESIGN.md
// section 13).
//
// Usage:
//   fuzz_tool run --corpus=DIR [--findings=DIR] [--seed=N]
//                 [--max-execs=N] [--max-candidates=N] [--max-seconds=N]
//                 [--max-findings=N] [--no-minimize] [--inject-skew]
//                 [--metrics-out=FILE]
//   fuzz_tool replay <seed-file> [--inject-skew]
//   fuzz_tool minimize <seed-file> --out=FILE [--inject-skew]
//                      [--budget=N]
//   fuzz_tool corpus-stats --corpus=DIR
//   fuzz_tool gen [--seed=N] [--shared] [--cores=N] [--out=FILE]
//
// `run` executes one campaign: bootstrap or load the corpus, mutate,
// run every candidate through the three-way oracle (ISS vs translator
// vs RTL across the detail x engine grid), admit mutants
// that light new edge-coverage bits, and write minimized findings as
// self-contained seed files. The farm WRITES into --corpus: point it at
// a scratch copy, never at the checked-in tests/fuzz_corpus tree.
//
// `--inject-skew` arms the translator's debug_skew_static_cycles drill
// (an off-by-one static block cycle count) — the planted bug the CI
// fuzz-smoke job proves the farm can find, minimize, and replay.
//
// `replay` exits 0 when the oracle agrees, 1 on a mismatch — which is
// how a checked-in finding seed stays red under --inject-skew and green
// without it (tests/fuzz_regression_test.cpp automates this).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "fuzz/corpus.h"
#include "fuzz/farm.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "obs/metrics.h"

namespace {

using namespace cabt;

void printStats(const fuzz::FarmStats& s) {
  std::printf(
      "farm candidates=%llu invalid=%llu oracle_execs=%llu "
      "corpus=%llu adds=%llu coverage_bits=%llu findings=%llu "
      "elapsed_ms=%llu execs/s=%.1f\n",
      static_cast<unsigned long long>(s.candidates),
      static_cast<unsigned long long>(s.invalid),
      static_cast<unsigned long long>(s.oracle_execs),
      static_cast<unsigned long long>(s.corpus_entries),
      static_cast<unsigned long long>(s.corpus_adds),
      static_cast<unsigned long long>(s.coverage_bits),
      static_cast<unsigned long long>(s.findings),
      static_cast<unsigned long long>(s.elapsed_millis), s.execs_per_sec);
  for (size_t i = 0; i < s.finding_mismatches.size(); ++i) {
    std::printf("finding %zu: %s\n", i, s.finding_mismatches[i].c_str());
    if (i < s.finding_paths.size()) {
      std::printf("  saved: %s\n", s.finding_paths[i].c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string command;
    std::string seed_path;
    std::string corpus_dir;
    std::string findings_dir;
    std::string out_path;
    std::string metrics_out;
    uint32_t seed = 1;
    uint64_t max_execs = 0;
    uint64_t max_candidates = 0;
    uint64_t max_seconds = 0;
    uint64_t max_findings = 8;
    unsigned budget = 120;
    size_t cores = 1;
    bool no_minimize = false;
    bool inject_skew = false;
    bool shared = false;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--corpus=", 0) == 0) {
        corpus_dir = arg.substr(9);
      } else if (arg.rfind("--findings=", 0) == 0) {
        findings_dir = arg.substr(11);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_out = arg.substr(14);
      } else if (arg.rfind("--seed=", 0) == 0) {
        seed = static_cast<uint32_t>(std::strtoul(arg.c_str() + 7, nullptr, 0));
      } else if (arg.rfind("--max-execs=", 0) == 0) {
        max_execs = std::strtoull(arg.c_str() + 12, nullptr, 0);
      } else if (arg.rfind("--max-candidates=", 0) == 0) {
        max_candidates = std::strtoull(arg.c_str() + 17, nullptr, 0);
      } else if (arg.rfind("--max-seconds=", 0) == 0) {
        max_seconds = std::strtoull(arg.c_str() + 14, nullptr, 0);
      } else if (arg.rfind("--max-findings=", 0) == 0) {
        max_findings = std::strtoull(arg.c_str() + 15, nullptr, 0);
      } else if (arg.rfind("--budget=", 0) == 0) {
        budget = static_cast<unsigned>(
            std::strtoul(arg.c_str() + 9, nullptr, 0));
      } else if (arg.rfind("--cores=", 0) == 0) {
        cores = std::strtoull(arg.c_str() + 8, nullptr, 0);
      } else if (arg == "--no-minimize") {
        no_minimize = true;
      } else if (arg == "--inject-skew") {
        inject_skew = true;
      } else if (arg == "--shared") {
        shared = true;
      } else if (!arg.empty() && arg[0] != '-') {
        if (command.empty()) {
          command = arg;
        } else if (seed_path.empty()) {
          seed_path = arg;
        } else {
          throw Error("unexpected argument '" + arg + "'");
        }
      } else {
        throw Error("unknown option '" + arg + "'");
      }
    }
    if (command.empty()) {
      std::fprintf(stderr,
                   "usage: %s run|replay|minimize|corpus-stats|gen "
                   "[<seed-file>] [--corpus=DIR] [--findings=DIR] "
                   "[--seed=N] [--max-execs=N] [--max-candidates=N] "
                   "[--max-seconds=N] [--max-findings=N] [--budget=N] "
                   "[--no-minimize] [--inject-skew] [--shared] "
                   "[--cores=N] [--out=F] [--metrics-out=F]\n",
                   argv[0]);
      return 2;
    }

    fuzz::OracleOptions oracle;
    oracle.xlat_skew = inject_skew;

    if (command == "run") {
      CABT_CHECK(!corpus_dir.empty(), "run needs --corpus=DIR");
      fuzz::FarmConfig cfg;
      cfg.corpus_dir = corpus_dir;
      cfg.findings_dir = findings_dir;
      cfg.seed = seed;
      cfg.max_execs = max_execs;
      cfg.max_candidates = max_candidates;
      cfg.max_millis = max_seconds * 1000;
      cfg.max_findings = max_findings;
      cfg.minimize = !no_minimize;
      cfg.minimize_budget = budget;
      cfg.oracle = oracle;
      fuzz::Farm farm(cfg);
      const fuzz::FarmStats stats = farm.run();
      printStats(stats);
      if (!metrics_out.empty()) {
        obs::MetricsRegistry reg;
        farm.publishMetrics(reg);
        std::ofstream out(metrics_out);
        CABT_CHECK(out.good(), "cannot open '" << metrics_out << "'");
        out << reg.toJson();
        std::printf("metrics %s entries=%zu\n", metrics_out.c_str(),
                    reg.size());
      }
      return stats.findings != 0 ? 1 : 0;
    }

    if (command == "replay") {
      CABT_CHECK(!seed_path.empty(), "replay needs a <seed-file>");
      const fuzz::SeedCase c = fuzz::loadSeedFile(seed_path);
      const fuzz::OracleResult r =
          fuzz::runOracle(c, oracle, nullptr);
      std::printf("replay %s: valid=%d execs=%llu ref_cycles=%llu %s\n",
                  seed_path.c_str(), r.valid ? 1 : 0,
                  static_cast<unsigned long long>(r.executions),
                  static_cast<unsigned long long>(r.ref_cycles),
                  !r.valid  ? "INVALID"
                  : r.ok    ? "OK"
                            : r.mismatch.c_str());
      return r.valid && r.ok ? 0 : 1;
    }

    if (command == "minimize") {
      CABT_CHECK(!seed_path.empty(), "minimize needs a <seed-file>");
      CABT_CHECK(!out_path.empty(), "minimize needs --out=FILE");
      fuzz::SeedCase c = fuzz::loadSeedFile(seed_path);
      const fuzz::OracleResult before =
          fuzz::runOracle(c, oracle, nullptr);
      CABT_CHECK(before.valid && !before.ok,
                 "seed does not fail the oracle; nothing to minimize");
      uint64_t trials = 0;
      fuzz::SeedCase min = fuzz::minimizeCase(c, oracle, budget, &trials);
      min.note = "finding: " + before.mismatch;
      fuzz::saveSeedFile(min, out_path);
      std::printf("minimized %zu -> %zu lines in %llu trials -> %s\n",
                  c.totalLines(), min.totalLines(),
                  static_cast<unsigned long long>(trials),
                  out_path.c_str());
      return 0;
    }

    if (command == "corpus-stats") {
      CABT_CHECK(!corpus_dir.empty(), "corpus-stats needs --corpus=DIR");
      fuzz::Corpus corpus(corpus_dir);
      size_t lines = 0;
      size_t with_faults = 0;
      for (const std::string& p : corpus.paths()) {
        const fuzz::SeedCase c = fuzz::loadSeedFile(p);
        lines += c.totalLines();
        with_faults += c.faults.empty() ? 0 : 1;
        std::printf("%s: programs=%zu lines=%zu quantum=%llu faults=%zu%s%s\n",
                    p.c_str(), c.programs.size(), c.totalLines(),
                    static_cast<unsigned long long>(c.quantum),
                    c.faults.size(), c.note.empty() ? "" : " note=",
                    c.note.c_str());
      }
      std::printf("corpus %s: entries=%zu lines=%zu with_faults=%zu\n",
                  corpus.dir().c_str(), corpus.size(), lines, with_faults);
      return 0;
    }

    if (command == "gen") {
      fuzz::SeedCase c;
      for (size_t i = 0; i < (cores == 0 ? 1 : cores); ++i) {
        fuzz::ProgramGenerator gen(fuzz::GeneratorConfig{
            seed + static_cast<uint32_t>(i * 17), shared});
        c.programs.push_back(gen.generate());
      }
      c.note = "gen seed=" + std::to_string(seed);
      if (out_path.empty()) {
        std::fputs(fuzz::serializeSeed(c).c_str(), stdout);
      } else {
        fuzz::saveSeedFile(c, out_path);
        std::printf("wrote %s\n", out_path.c_str());
      }
      return 0;
    }

    throw Error("unknown command '" + command + "'");
  } catch (const cabt::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: unhandled exception: %s\n", e.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "error: unhandled non-standard exception\n");
    return 2;
  }
}
