// Differential property tests over randomly generated TRC32 programs.
//
// A seeded generator produces structured random programs (straight-line
// arithmetic, bounded loops, memory traffic, calls, mixed 16/32-bit
// encodings). Each program is executed on:
//   * the reference ISS (ground truth),
//   * the RT-level model (must agree cycle-for-cycle), and
//   * the emulation platform after translation at every detail level
//     (functional equivalence always; exact generated cycle count at the
//     icache level; exact-minus-cache-penalty at branch-predict level).
// This is the central end-to-end invariant of the reproduction, checked
// over a wide program space rather than just the hand-written workloads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <string>

#include "fuzz/program_gen.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "rtlsim/rtlsim.h"
#include "snap/observe.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt {
namespace {

// The generator lives in src/fuzz/program_gen.h (one definition, shared
// with the fuzzing farm); these tests consume it as a library.
using fuzz::GeneratorConfig;
using fuzz::ProgramGenerator;

/// Base offset added to every suite parameter (1..60), read from the
/// CABT_TEST_SEED environment variable (default 0). Every failure prints
/// its exact seed; reproduce a reported seed S in a single-test run with
///   CABT_TEST_SEED=$((S-1)) ./random_program_test
///       --gtest_filter='*AllVehiclesAgree/0'
/// (test index 0 is parameter value 1, so it runs seed (S-1)+1 = S).
uint32_t seedBase() {
  const char* env = std::getenv("CABT_TEST_SEED");
  return env != nullptr
             ? static_cast<uint32_t>(std::strtoul(env, nullptr, 0))
             : 0;
}

/// The threaded engine has one block tier: every cached dispatch outside
/// a trace ran the block's lowered threaded-code program.
void expectLoweredOutsideTraces(const iss::IssStats& s) {
  EXPECT_EQ(s.cached_blocks - s.trace_blocks,
            s.threaded_dispatches - s.trace_dispatches);
}

class RandomPrograms : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomPrograms, AllVehiclesAgree) {
  const uint32_t seed = seedBase() + GetParam();
  SCOPED_TRACE("seed: " + std::to_string(seed) + " (CABT_TEST_SEED base " +
               std::to_string(seedBase()) + " + param " +
               std::to_string(GetParam()) + ")");
  ProgramGenerator gen(GeneratorConfig{seed, /*shared_traffic=*/false});
  // Full generator config, so the failure log line alone reproduces the
  // program: one core, every detail level and dispatch engine below.
  SCOPED_TRACE("generator: cores=1 " + fuzz::describe(gen.config()) +
               " detail=all engine=all");
  const std::string source = gen.generate();
  SCOPED_TRACE("program:\n" + source);

  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const elf::Object obj = trc::assemble(source);

  iss::Iss ref(desc, obj);
  ref.enableBlockTrace(true);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);

  // Both engines must match the reference (the run() default: the
  // threaded engine) instruction-for-instruction and cycle-for-cycle:
  // identical stats, registers and per-block timing records. The
  // stepping engine is the ground truth; a low-threshold threaded engine
  // (superblocks form after two dispatches, so every loop exercises
  // lowered, guarded traces) has to agree bit-exactly.
  const auto compareEngines = [&](iss::IssConfig cfg, const char* label,
                                  bool expect_cached) {
    SCOPED_TRACE(label);
    iss::Iss other(desc, obj, nullptr, cfg);
    other.enableBlockTrace(true);
    ASSERT_EQ(other.run(), iss::StopReason::kHalted);
    EXPECT_EQ(snap::firstMismatch(snap::observe(ref), snap::observe(other)),
              "");
    ASSERT_EQ(other.blockTrace().size(), ref.blockTrace().size());
    for (size_t i = 0; i < other.blockTrace().size(); ++i) {
      const iss::BlockRecord& s = other.blockTrace()[i];
      const iss::BlockRecord& f = ref.blockTrace()[i];
      EXPECT_EQ(s.addr, f.addr) << "block " << i;
      EXPECT_EQ(s.pipeline_cycles, f.pipeline_cycles) << "block " << i;
      EXPECT_EQ(s.branch_extra, f.branch_extra) << "block " << i;
      EXPECT_EQ(s.cache_penalty, f.cache_penalty) << "block " << i;
    }
    if (expect_cached) {
      // Every block of a leader-entered program runs from the cache.
      EXPECT_EQ(other.stats().cached_blocks, other.stats().blocks);
      expectLoweredOutsideTraces(other.stats());
    } else {
      EXPECT_EQ(other.stats().cached_blocks, 0u);
    }
  };
  EXPECT_EQ(ref.stats().cached_blocks, ref.stats().blocks);
  expectLoweredOutsideTraces(ref.stats());
  {
    iss::IssConfig cfg;
    cfg.use_block_cache = false;
    compareEngines(cfg, "stepping", false);
  }
  {
    iss::IssConfig cfg;
    cfg.trace_threshold = 2;
    compareEngines(cfg, "threaded(threshold=2)", true);
  }

  // RT-level model: exact cycle agreement.
  rtlsim::RtlCore rtl(desc, obj);
  rtl.run();
  EXPECT_EQ(rtl.stats().cycles, ref.stats().cycles);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rtl.d(i), ref.d(i)) << "d" << i;
  }

  // Translation at every level.
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    xlat::TranslateOptions opts;
    opts.level = level;
    const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
    platform::EmulationPlatform plat(desc, t.image);
    const platform::RunResult run = plat.run();
    ASSERT_EQ(run.state, vliw::RunState::kHalted);
    EXPECT_EQ(platform::compareFinalState(desc, ref, plat, obj), "");
    if (level == xlat::DetailLevel::kICache) {
      EXPECT_EQ(run.generated_cycles, ref.stats().cycles);
    }
    if (level == xlat::DetailLevel::kBranchPredict) {
      EXPECT_EQ(run.generated_cycles + ref.stats().cache_penalty,
                ref.stats().cycles);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<uint32_t>(1, 61));

TEST(RandomPrograms, GeneratorIsDeterministic) {
  EXPECT_EQ(ProgramGenerator(7).generate(), ProgramGenerator(7).generate());
  EXPECT_NE(ProgramGenerator(7).generate(), ProgramGenerator(8).generate());
}

// ---- multi-core randomized scenario ---------------------------------
//
// Three cores run three different random programs (private compute plus
// random shared-mailbox/scratch chatter) on one reference board, under
// step() and under the threaded engine. Everything observable must
// agree bit-exactly: registers, cycles, and the shared bus's full
// transaction log (order, payloads and SoC-cycle stamps).

/// Three different random programs with shared mailbox/scratch chatter,
/// one per core; appends each core's generator config to `described`.
workloads::BoardImages threeCoreBoard(uint32_t seed, std::string& described) {
  std::vector<std::string> sources;
  for (uint32_t core = 0; core < 3; ++core) {
    ProgramGenerator gen(
        GeneratorConfig{seed + 1000 * core, /*shared_traffic=*/true});
    described += " core" + std::to_string(core) + "=[" +
                 fuzz::describe(gen.config()) + "]";
    sources.push_back(gen.generate());
  }
  return workloads::BoardImages::assembled(sources);
}

class MultiCoreRandomPrograms : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MultiCoreRandomPrograms, EnginesBitIdentical) {
  const uint32_t seed = seedBase() + GetParam();
  SCOPED_TRACE("seed: " + std::to_string(seed) + " (CABT_TEST_SEED base " +
               std::to_string(seedBase()) + " + param " +
               std::to_string(GetParam()) + ")");
  std::string gen_desc = "generator: cores=3 detail=icache";
  const auto images = threeCoreBoard(seed, gen_desc);
  SCOPED_TRACE(gen_desc);

  for (const sim::Cycle quantum : {16u, 512u}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    const auto runOnce = [&](bool threaded) {
      platform::BoardConfig base;
      base.quantum = quantum;
      const auto board = snap::makeBoard(
          images, {xlat::DetailLevel::kICache, threaded}, base);
      EXPECT_EQ(board->run(), iss::StopReason::kHalted);
      return snap::observe(*board);
    };
    EXPECT_EQ(snap::firstMismatch(runOnce(false), runOnce(true)), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiCoreRandomPrograms,
                         ::testing::Range<uint32_t>(1, 13));

// ---- snapshot round-trip fuzz ---------------------------------------
//
// Random multi-core boards (private compute plus shared mailbox/scratch
// chatter), snapshotted at a random mid-run cycle and restored into a
// completely fresh platform. Every observable — per-core stats,
// registers, the full bus transaction log and the rolling state digest —
// must match an uninterrupted run bit-exactly. The engine alternates with
// the seed, so cold restores land in both engines, including threaded-
// code programs re-lowered from a cache rebuilt after restore.

class SnapshotFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SnapshotFuzz, RandomCycleSaveRestoreBitIdentical) {
  const uint32_t seed = seedBase() + GetParam();
  SCOPED_TRACE("seed: " + std::to_string(seed) + " (CABT_TEST_SEED base " +
               std::to_string(seedBase()) + " + param " +
               std::to_string(GetParam()) + ")");
  std::string gen_desc = "generator: cores=3";
  const auto images = threeCoreBoard(seed, gen_desc);
  SCOPED_TRACE(gen_desc);
  const bool threaded = GetParam() % 2 == 1;
  SCOPED_TRACE(std::string("engine: ") + (threaded ? "threaded" : "step"));
  const auto build = [&] {
    platform::BoardConfig base;
    base.quantum = 256;
    // Aggressive formation so short fuzz programs still exercise traces
    // and threaded lowering before the random save point.
    base.iss.trace_threshold = 2;
    return snap::makeBoard(images, {xlat::DetailLevel::kICache, threaded},
                           base);
  };

  std::unique_ptr<platform::ReferenceBoard> ref = build();
  ASSERT_EQ(ref->run(), iss::StopReason::kHalted);
  const snap::Observation want = snap::observe(*ref);
  // A seed-derived random save point anywhere inside the run. Short
  // programs can retire within the first kernel activation (global time
  // never advances past 0); the bus clock still measures the run's
  // span, and a post-halt save degenerates to a (valid) halted-state
  // round trip.
  const sim::Cycle end = std::max<uint64_t>(want.bus_cycle, 1);
  std::mt19937 cut_rng(seed * 2654435761u);
  const sim::Cycle save_at = 1 + cut_rng() % end;
  SCOPED_TRACE("save at cycle " + std::to_string(save_at) + " of " +
               std::to_string(end));

  std::unique_ptr<platform::ReferenceBoard> saved = build();
  saved->runTo(save_at);
  const std::vector<uint8_t> snapshot = snap::save(*saved);

  std::unique_ptr<platform::ReferenceBoard> fresh = build();
  snap::restore(*fresh, snapshot);
  ASSERT_EQ(fresh->run(), iss::StopReason::kHalted);
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(*fresh)), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Range<uint32_t>(1, 11));

}  // namespace
}  // namespace cabt
