// The fuzzing farm's building blocks (src/fuzz, DESIGN.md section 13).
//
// Claims under test:
//   1. EdgeCoverage is a well-behaved bitmap: deterministic edge
//      hashing, merge/newBits algebra, clear.
//   2. Coverage collection is non-perturbing: digests and bus logs are
//      bit-identical with collection on and off, on both ISS engines
//      (the obs_test idiom — coverage is an observer, never a
//      participant).
//   3. The mutator is deterministic per seed and every product
//      assembles and parses; the control-flow skeleton survives, and
//      fault cycles stay below the case's horizon.
//   4. Seed cases round-trip through the on-disk format; malformed
//      files are rejected with a diagnosis, not accepted quietly.
//   5. The oracle passes a clean generated case and catches the planted
//      translator skew (debug_skew_static_cycles) — the acceptance
//      drill.
//   6. The minimizer only ever returns still-failing, no-larger cases.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/coverage.h"
#include "fi/fi.h"
#include "fuzz/corpus.h"
#include "fuzz/farm.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

uint32_t testSeed() {
  const char* env = std::getenv("CABT_TEST_SEED");
  return env != nullptr
             ? static_cast<uint32_t>(std::strtoul(env, nullptr, 0))
             : 0;
}

// ---- 1. EdgeCoverage --------------------------------------------------

TEST(EdgeCoverage, RecordsAndCounts) {
  core::EdgeCoverage cov;
  EXPECT_EQ(cov.bitsSet(), 0u);
  cov.recordEdge(0x100, 0x200);
  cov.recordEdge(0x100, 0x200);  // same edge, same bit
  EXPECT_EQ(cov.bitsSet(), 1u);
  cov.recordEdge(0x200, 0x100);  // direction matters
  EXPECT_EQ(cov.bitsSet(), 2u);
  cov.clear();
  EXPECT_EQ(cov.bitsSet(), 0u);
}

TEST(EdgeCoverage, IndexIsDeterministicAndSpreads) {
  EXPECT_EQ(core::EdgeCoverage::edgeIndex(0x1234, 0x5678),
            core::EdgeCoverage::edgeIndex(0x1234, 0x5678));
  // A few hundred distinct edges should not collapse onto a handful of
  // bits (sanity of the mixer, not a strict collision bound).
  std::set<uint32_t> indices;
  for (uint32_t i = 0; i < 512; ++i) {
    indices.insert(core::EdgeCoverage::edgeIndex(0x1000 + i * 4,
                                                 0x2000 + i * 8));
  }
  EXPECT_GT(indices.size(), 400u);
}

TEST(EdgeCoverage, MergeAndNewBits) {
  core::EdgeCoverage a;
  core::EdgeCoverage b;
  a.recordEdge(1, 2);
  b.recordEdge(1, 2);
  b.recordEdge(3, 4);
  EXPECT_EQ(a.newBits(b), 1u);   // only (3,4) is new to a
  EXPECT_EQ(b.newBits(a), 0u);   // a adds nothing to b
  EXPECT_EQ(a.merge(b), 1u);     // merge reports what it added
  EXPECT_EQ(a.bitsSet(), 2u);
  EXPECT_EQ(a.newBits(b), 0u);
}

// ---- board helpers ----------------------------------------------------

/// An icache-level board with aggressive trace and threaded-code
/// formation, as the oracle runs it.
std::unique_ptr<platform::ReferenceBoard> fuzzBoard(
    const workloads::BoardImages& images, bool threaded) {
  platform::BoardConfig base;
  base.iss.trace_threshold = 2;
  base.iss.threaded_threshold = 2;
  base.iss.max_instructions = 2'000'000;
  base.quantum = 256;
  return snap::makeBoard(images, {xlat::DetailLevel::kICache, threaded},
                         base);
}

struct CovRun {
  snap::Observation obs;
  uint64_t bits = 0;
};

CovRun runWithCoverage(const workloads::BoardImages& images, bool threaded,
                       bool collect) {
  const auto board = fuzzBoard(images, threaded);
  core::EdgeCoverage cov;
  if (collect) {
    for (size_t i = 0; i < board->numCores(); ++i) {
      board->attachEdgeCoverage(i, &cov);
    }
  }
  board->run();
  return {snap::observe(*board), cov.bitsSet()};
}

// ---- 2. coverage collection is non-perturbing -------------------------

TEST(Coverage, CollectionNeverPerturbsArchitecturalState) {
  fuzz::ProgramGenerator gen0(testSeed() + 21, /*shared_traffic=*/true);
  fuzz::ProgramGenerator gen1(testSeed() + 22, /*shared_traffic=*/true);
  const auto images =
      workloads::BoardImages::assembled({gen0.generate(), gen1.generate()});
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "step");
    const CovRun off = runWithCoverage(images, threaded, false);
    const CovRun on = runWithCoverage(images, threaded, true);
    EXPECT_EQ(snap::firstMismatch(off.obs, on.obs), "");
    EXPECT_GT(on.bits, 0u);  // the observer did observe something
  }
}

TEST(Coverage, SignalIsDeterministicAcrossEngines) {
  fuzz::ProgramGenerator gen(testSeed() + 23);
  const auto images = workloads::BoardImages::assembled({gen.generate()});
  const CovRun step = runWithCoverage(images, /*threaded=*/false, true);
  const CovRun threaded = runWithCoverage(images, /*threaded=*/true, true);
  EXPECT_EQ(threaded.bits, step.bits);
}

// ---- 3. mutator -------------------------------------------------------

fuzz::SeedCase makeCase(uint32_t seed, size_t cores, bool shared) {
  fuzz::SeedCase c;
  for (size_t i = 0; i < cores; ++i) {
    fuzz::ProgramGenerator gen(seed + static_cast<uint32_t>(i * 17), shared);
    c.programs.push_back(gen.generate());
  }
  return c;
}

TEST(Mutator, DeterministicPerSeed) {
  const fuzz::SeedCase base = makeCase(testSeed() + 31, 1, false);
  fuzz::Mutator a(99);
  fuzz::Mutator b(99);
  for (int i = 0; i < 20; ++i) {
    const std::optional<fuzz::SeedCase> ma = a.mutate(base);
    const std::optional<fuzz::SeedCase> mb = b.mutate(base);
    ASSERT_EQ(ma.has_value(), mb.has_value()) << i;
    if (ma.has_value()) {
      EXPECT_EQ(ma->programs, mb->programs) << i;
      EXPECT_EQ(ma->faults, mb->faults) << i;
    }
  }
}

TEST(Mutator, ProductsAssembleAndFaultsParse) {
  const fuzz::SeedCase base = makeCase(testSeed() + 32, 2, true);
  fuzz::Mutator mutator(7);
  int produced = 0;
  for (int i = 0; i < 50; ++i) {
    const std::optional<fuzz::SeedCase> m = mutator.mutate(base);
    if (!m.has_value()) {
      continue;
    }
    ++produced;
    for (const std::string& p : m->programs) {
      EXPECT_NO_THROW((void)trc::assemble(p)) << mutator.lastOperator();
    }
    for (const std::string& f : m->faults) {
      EXPECT_NO_THROW((void)fi::parseFaultSpec(f)) << f;
    }
  }
  EXPECT_GT(produced, 25);
}

TEST(Mutator, PreservesControlFlowSkeleton) {
  const fuzz::SeedCase base = makeCase(testSeed() + 33, 1, false);
  auto skeleton = [](const std::string& source) {
    std::vector<std::string> keep;
    for (const std::string& line : fuzz::splitLines(source)) {
      if (line.find(':') != std::string::npos ||
          line.find("jne") != std::string::npos ||
          line.find("call") != std::string::npos ||
          line.find("halt") != std::string::npos) {
        keep.push_back(line);
      }
    }
    return keep;
  };
  const std::vector<std::string> want = skeleton(base.programs[0]);
  fuzz::Mutator mutator(13);
  for (int i = 0; i < 30; ++i) {
    const std::optional<fuzz::SeedCase> m = mutator.mutate(base);
    if (!m.has_value()) {
      continue;
    }
    EXPECT_EQ(skeleton(m->programs[0]), want) << mutator.lastOperator();
  }
}

// Fault cycles are drawn below the case's horizon in 64 bits: a horizon
// of 2^32 or more must neither narrow the span to zero (a division by
// zero) nor wrap the cycle.
TEST(Mutator, FaultCyclesStayBelowWideHorizons) {
  for (const uint64_t horizon : {uint64_t{1} << 32, uint64_t{1} << 40}) {
    SCOPED_TRACE(horizon);
    fuzz::SeedCase base = makeCase(testSeed() + 34, 1, false);
    base.horizon = horizon;
    fuzz::Mutator mutator(5);
    size_t faults = 0;
    for (int i = 0; i < 200 && faults == 0; ++i) {
      const std::optional<fuzz::SeedCase> m = mutator.mutate(base);
      if (!m.has_value()) {
        continue;
      }
      for (const std::string& f : m->faults) {
        EXPECT_LT(fi::parseFaultSpec(f).cycle, horizon) << f;
        ++faults;
      }
    }
    EXPECT_GT(faults, 0u);
  }
}

// ---- 4. corpus format -------------------------------------------------

TEST(Corpus, SeedRoundTrips) {
  fuzz::SeedCase c = makeCase(testSeed() + 41, 2, true);
  c.quantum = 512;
  c.horizon = 9999;
  c.faults = {"dreg@2000:core=1,index=3,mask=16"};
  c.note = "round trip";
  const fuzz::SeedCase back = fuzz::parseSeed(fuzz::serializeSeed(c));
  EXPECT_EQ(back.programs, c.programs);
  EXPECT_EQ(back.quantum, c.quantum);
  EXPECT_EQ(back.horizon, c.horizon);
  EXPECT_EQ(back.faults, c.faults);
  EXPECT_EQ(back.note, c.note);
}

TEST(Corpus, RejectsMalformedSeeds) {
  EXPECT_THROW((void)fuzz::parseSeed("not a seed\n"), Error);
  EXPECT_THROW((void)fuzz::parseSeed("cabt-fuzz-seed v2\nbogus 1\n"), Error);
  EXPECT_THROW(
      (void)fuzz::parseSeed("cabt-fuzz-seed v2\nprogram\nhalt\n"),
      Error);  // unterminated program
  EXPECT_THROW((void)fuzz::parseSeed("cabt-fuzz-seed v2\nquantum 4\n"),
               Error);  // no programs
  // A v1 file fails on its magic line, and v1's `fork` key is unknown in
  // v2.
  EXPECT_THROW((void)fuzz::parseSeed(
                   "cabt-fuzz-seed v1\nquantum 4\nprogram\nhalt\n%%\n"),
               Error);
  EXPECT_THROW((void)fuzz::parseSeed(
                   "cabt-fuzz-seed v2\nfork 0\nprogram\nhalt\n%%\n"),
               Error);
}

TEST(Corpus, DirectoryScanAndAdd) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fuzz_corpus_test";
  std::filesystem::remove_all(dir);
  fuzz::Corpus corpus(dir.string());
  EXPECT_EQ(corpus.size(), 0u);
  const fuzz::SeedCase c = makeCase(testSeed() + 42, 1, false);
  const std::string p1 = corpus.add(c, "unit");
  const std::string p2 = corpus.add(c, "unit");
  EXPECT_NE(p1, p2);
  EXPECT_EQ(corpus.size(), 2u);
  fuzz::Corpus rescan(dir.string());
  EXPECT_EQ(rescan.size(), 2u);
  EXPECT_EQ(rescan.paths(), corpus.paths());
}

// ---- 5. oracle --------------------------------------------------------

TEST(Oracle, CleanGeneratedCasePassesThreeWay) {
  fuzz::SeedCase c = makeCase(testSeed() + 51, 1, false);
  fuzz::OracleOptions opts;
  const fuzz::OracleResult r = fuzz::runOracle(c, opts, nullptr);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.ok) << r.mismatch;
  EXPECT_GT(r.ref_cycles, 0u);
  // Grid (4 levels x 2 engines) plus the standalone ISS, the rtlsim and
  // one translated platform per level.
  EXPECT_EQ(r.executions, 8u + 2u + 4u);
}

// A fault naming a core the case does not have makes the candidate
// invalid (Campaign::arm throws cabt::Error); it never escapes runOracle.
TEST(Oracle, FaultOnAMissingCoreIsInvalid) {
  fuzz::SeedCase c = makeCase(testSeed() + 51, 1, false);
  c.faults.push_back("dreg@10:core=3,index=1,mask=1");
  const fuzz::OracleResult r =
      fuzz::runOracle(c, fuzz::OracleOptions{}, nullptr);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.mismatch.find("reference run failed"), std::string::npos)
      << r.mismatch;
}

TEST(Oracle, CatchesPlantedTranslatorSkew) {
  fuzz::SeedCase c = makeCase(testSeed() + 51, 1, false);
  fuzz::OracleOptions opts;
  opts.xlat_skew = true;
  const fuzz::OracleResult r = fuzz::runOracle(c, opts, nullptr);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.mismatch.find("translated platform"), std::string::npos)
      << r.mismatch;
}

TEST(Oracle, MultiCoreSharedCasePassesGrid) {
  fuzz::SeedCase c = makeCase(testSeed() + 52, 2, true);
  fuzz::OracleOptions opts;
  const fuzz::OracleResult r = fuzz::runOracle(c, opts, nullptr);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.ok) << r.mismatch;
}

// ---- 6. minimizer -----------------------------------------------------

TEST(Minimizer, ShrinksSkewFindingAndKeepsItFailing) {
  fuzz::SeedCase c = makeCase(testSeed() + 51, 1, false);
  fuzz::OracleOptions opts;
  opts.xlat_skew = true;
  const fuzz::OracleResult before =
      fuzz::runOracle(c, opts, nullptr);
  ASSERT_TRUE(before.valid);
  ASSERT_FALSE(before.ok);
  uint64_t trials = 0;
  const fuzz::SeedCase min = fuzz::minimizeCase(c, opts, 40, &trials);
  EXPECT_LE(min.totalLines(), c.totalLines());
  EXPECT_GT(trials, 0u);
  EXPECT_LE(trials, 40u);
  const fuzz::OracleResult after =
      fuzz::runOracle(min, opts, nullptr);
  EXPECT_TRUE(after.valid);
  EXPECT_FALSE(after.ok);
  // And the minimized case is clean without the planted bug.
  fuzz::OracleOptions clean;
  const fuzz::OracleResult sane =
      fuzz::runOracle(min, clean, nullptr);
  EXPECT_TRUE(sane.valid);
  EXPECT_TRUE(sane.ok) << sane.mismatch;
}

}  // namespace
}  // namespace cabt
