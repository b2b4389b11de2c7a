// Replays the checked-in fuzz findings forever, and proves the farm
// still earns its keep (DESIGN.md section 13).
//
// Two suites:
//   * Seeds: every tests/fuzz_seeds/*.seed is a self-contained
//     regression case. All of them must replay clean against today's
//     engines; the minimized skew finding must additionally go red the
//     moment the planted translator bug (debug_skew_static_cycles) is
//     re-armed — red under the bug, green without it, forever.
//   * Farm: the acceptance drill. Run the farm over a scratch copy of
//     the checked-in bootstrap corpus (the farm writes into its corpus
//     directory — never point it at the source tree) with the planted
//     bug armed and a CI-sized budget: it must find the bug, minimize
//     the finding, and the minimized seed must replay red-with-bug /
//     green-clean.
//
// Paths resolve through CABT_SOURCE_DIR (a compile definition), so the
// test runs from any build directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/farm.h"
#include "fuzz/oracle.h"
#include "obs/metrics.h"

namespace cabt {
namespace {

namespace fs = std::filesystem;

#ifndef CABT_SOURCE_DIR
#error "fuzz_regression_test needs -DCABT_SOURCE_DIR=\"...\""
#endif

fs::path sourceDir() { return fs::path(CABT_SOURCE_DIR); }

std::vector<std::string> seedFiles(const fs::path& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".seed") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

fs::path freshTempDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Seeds, CheckedInSeedsReplayClean) {
  const std::vector<std::string> seeds =
      seedFiles(sourceDir() / "tests" / "fuzz_seeds");
  ASSERT_FALSE(seeds.empty());
  for (const std::string& path : seeds) {
    SCOPED_TRACE(path);
    const fuzz::SeedCase c = fuzz::loadSeedFile(path);
    const fuzz::OracleResult r =
        fuzz::runOracle(c, fuzz::OracleOptions{}, nullptr);
    EXPECT_TRUE(r.valid) << r.mismatch;
    EXPECT_TRUE(r.ok) << r.mismatch;
  }
}

TEST(Seeds, SkewFindingStaysRedUnderPlantedBug) {
  const fs::path path =
      sourceDir() / "tests" / "fuzz_seeds" / "skew-finding-0.seed";
  ASSERT_TRUE(fs::exists(path)) << path;
  const fuzz::SeedCase c = fuzz::loadSeedFile(path.string());
  fuzz::OracleOptions skew;
  skew.xlat_skew = true;
  const fuzz::OracleResult bad =
      fuzz::runOracle(c, skew, nullptr);
  EXPECT_TRUE(bad.valid) << bad.mismatch;
  EXPECT_FALSE(bad.ok) << "planted translator bug went undetected";
  const fuzz::OracleResult good =
      fuzz::runOracle(c, fuzz::OracleOptions{}, nullptr);
  EXPECT_TRUE(good.valid) << good.mismatch;
  EXPECT_TRUE(good.ok) << good.mismatch;
}

/// Scratch copy of the checked-in corpus (the farm mutates its corpus
/// directory in place).
fs::path copyCorpus(const std::string& name) {
  const fs::path dst = freshTempDir(name);
  const fs::path src = sourceDir() / "tests" / "fuzz_corpus";
  for (const fs::directory_entry& e : fs::directory_iterator(src)) {
    if (e.is_regular_file() && e.path().extension() == ".seed") {
      fs::copy_file(e.path(), dst / e.path().filename());
    }
  }
  return dst;
}

TEST(Farm, FindsMinimizesAndReplaysPlantedSkew) {
  const fs::path corpus = copyCorpus("fuzz_reg_corpus");
  const fs::path findings = freshTempDir("fuzz_reg_findings");
  fuzz::FarmConfig cfg;
  cfg.corpus_dir = corpus.string();
  cfg.findings_dir = findings.string();
  cfg.seed = 1;
  cfg.max_findings = 1;
  cfg.max_candidates = 64;    // the drill fires during admission;
  cfg.max_millis = 120'000;   // budgets are backstops, not the plan
  cfg.minimize_budget = 40;
  cfg.oracle.xlat_skew = true;
  fuzz::Farm farm(cfg);
  const fuzz::FarmStats stats = farm.run();
  ASSERT_GE(stats.findings, 1u);
  ASSERT_FALSE(stats.finding_paths.empty());
  ASSERT_FALSE(stats.finding_mismatches.empty());
  EXPECT_NE(stats.finding_mismatches[0].find("translated platform"),
            std::string::npos)
      << stats.finding_mismatches[0];

  // The minimized finding replays: red with the bug, green without.
  const fuzz::SeedCase minimized =
      fuzz::loadSeedFile(stats.finding_paths[0]);
  fuzz::OracleOptions skew;
  skew.xlat_skew = true;
  const fuzz::OracleResult bad =
      fuzz::runOracle(minimized, skew, nullptr);
  EXPECT_TRUE(bad.valid) << bad.mismatch;
  EXPECT_FALSE(bad.ok);
  const fuzz::OracleResult good =
      fuzz::runOracle(minimized, fuzz::OracleOptions{}, nullptr);
  EXPECT_TRUE(good.valid) << good.mismatch;
  EXPECT_TRUE(good.ok) << good.mismatch;

  // fuzz.* metrics publish from the campaign.
  obs::MetricsRegistry reg;
  farm.publishMetrics(reg);
  EXPECT_EQ(reg.counterOr("fuzz.findings"), stats.findings);
  EXPECT_GT(reg.counterOr("fuzz.oracle_execs"), 0u);
}

TEST(Farm, CleanCampaignFindsNothingAndGrowsCoverage) {
  const fs::path corpus = copyCorpus("fuzz_reg_clean_corpus");
  fuzz::FarmConfig cfg;
  cfg.corpus_dir = corpus.string();
  cfg.seed = 3;
  cfg.max_candidates = 6;   // a short sniff, not a campaign
  cfg.max_millis = 120'000;
  fuzz::Farm farm(cfg);
  const fuzz::FarmStats stats = farm.run();
  EXPECT_EQ(stats.findings, 0u);
  EXPECT_GT(stats.coverage_bits, 0u);
  EXPECT_GT(stats.oracle_execs, 0u);
  EXPECT_EQ(stats.candidates, 6u);
}

}  // namespace
}  // namespace cabt
