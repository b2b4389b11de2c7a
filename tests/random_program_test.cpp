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

#include <array>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>

#include "fuzz/program_gen.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "rtlsim/rtlsim.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"
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
  // (blocks lower and superblocks form after two dispatches, so every
  // loop exercises lowered, guarded traces) has to agree bit-exactly.
  const auto compareEngines = [&](iss::IssConfig cfg, const char* label,
                                  bool expect_cached) {
    SCOPED_TRACE(label);
    iss::Iss other(desc, obj, nullptr, cfg);
    other.enableBlockTrace(true);
    ASSERT_EQ(other.run(), iss::StopReason::kHalted);
    EXPECT_EQ(other.stats().instructions, ref.stats().instructions);
    EXPECT_EQ(other.stats().cycles, ref.stats().cycles);
    EXPECT_EQ(other.stats().pipeline_cycles, ref.stats().pipeline_cycles);
    EXPECT_EQ(other.stats().branch_extra, ref.stats().branch_extra);
    EXPECT_EQ(other.stats().cache_penalty, ref.stats().cache_penalty);
    EXPECT_EQ(other.stats().blocks, ref.stats().blocks);
    EXPECT_EQ(other.stats().icache_accesses, ref.stats().icache_accesses);
    EXPECT_EQ(other.stats().icache_misses, ref.stats().icache_misses);
    EXPECT_EQ(other.stats().cond_branches, ref.stats().cond_branches);
    EXPECT_EQ(other.stats().cond_taken, ref.stats().cond_taken);
    EXPECT_EQ(other.stats().mispredicts, ref.stats().mispredicts);
    EXPECT_EQ(other.pc(), ref.pc());
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(other.d(i), ref.d(i)) << "d" << i;
      EXPECT_EQ(other.a(i), ref.a(i)) << "a" << i;
    }
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
    } else {
      EXPECT_EQ(other.stats().cached_blocks, 0u);
    }
  };
  EXPECT_EQ(ref.stats().cached_blocks, ref.stats().blocks);
  {
    iss::IssConfig cfg;
    cfg.use_block_cache = false;
    compareEngines(cfg, "stepping", false);
  }
  {
    iss::IssConfig cfg;
    cfg.trace_threshold = 2;
    cfg.threaded_threshold = 2;
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
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
        xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
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
// the sequential kernel and under parallel rounds. Everything observable
// must agree bit-exactly: registers, cycles, and the shared bus's full
// transaction log (order, payloads and SoC-cycle stamps).

class MultiCoreRandomPrograms : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MultiCoreRandomPrograms, ParallelKernelBitIdentical) {
  const uint32_t seed = seedBase() + GetParam();
  SCOPED_TRACE("seed: " + std::to_string(seed) + " (CABT_TEST_SEED base " +
               std::to_string(seedBase()) + " + param " +
               std::to_string(GetParam()) + ")");
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> ptrs;
  std::string gen_desc = "generator: cores=3 detail=icache";
  for (uint32_t core = 0; core < 3; ++core) {
    ProgramGenerator gen(
        GeneratorConfig{seed + 1000 * core, /*shared_traffic=*/true});
    gen_desc += " core" + std::to_string(core) + "=[" +
                fuzz::describe(gen.config()) + "]";
    images.push_back(trc::assemble(gen.generate()));
  }
  SCOPED_TRACE(gen_desc);
  for (const elf::Object& obj : images) {
    ptrs.push_back(&obj);
  }

  for (const sim::Cycle quantum : {16u, 512u}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    struct Run {
      std::vector<iss::IssStats> stats;
      std::vector<std::array<uint32_t, 32>> regs;
      std::vector<uint32_t> pc;
      std::vector<soc::Transaction> log;
      uint64_t bus_cycle = 0;
      uint64_t events = 0;
    };
    const auto runOnce = [&](bool parallel) {
      platform::BoardConfig cfg;
      cfg.quantum = quantum;
      cfg.parallel.enabled = parallel;
      cfg.parallel.workers = 2;  // real threads even on 1-core hosts
      platform::ReferenceBoard board(desc, ptrs, cfg);
      const iss::StopReason r = board.run();
      EXPECT_EQ(r, iss::StopReason::kHalted);
      Run run;
      for (size_t i = 0; i < board.numCores(); ++i) {
        run.stats.push_back(board.core(i).stats());
        std::array<uint32_t, 32> regs{};
        for (int j = 0; j < 16; ++j) {
          regs[static_cast<size_t>(j)] = board.core(i).d(j);
          regs[static_cast<size_t>(j) + 16] = board.core(i).a(j);
        }
        run.regs.push_back(regs);
        run.pc.push_back(board.core(i).pc());
      }
      run.log = board.board().bus.log();
      run.bus_cycle = board.board().bus.socCycle();
      run.events = board.kernel().eventsDispatched();
      return run;
    };
    const Run seq = runOnce(false);
    const Run par = runOnce(true);
    ASSERT_EQ(par.stats.size(), seq.stats.size());
    for (size_t i = 0; i < seq.stats.size(); ++i) {
      SCOPED_TRACE("core " + std::to_string(i));
      EXPECT_EQ(par.stats[i].instructions, seq.stats[i].instructions);
      EXPECT_EQ(par.stats[i].cycles, seq.stats[i].cycles);
      EXPECT_EQ(par.stats[i].io_reads, seq.stats[i].io_reads);
      EXPECT_EQ(par.stats[i].io_writes, seq.stats[i].io_writes);
      EXPECT_EQ(par.regs[i], seq.regs[i]);
      EXPECT_EQ(par.pc[i], seq.pc[i]);
    }
    EXPECT_EQ(par.bus_cycle, seq.bus_cycle);
    EXPECT_EQ(par.events, seq.events);
    ASSERT_EQ(par.log.size(), seq.log.size());
    for (size_t i = 0; i < seq.log.size(); ++i) {
      EXPECT_EQ(par.log[i].soc_cycle, seq.log[i].soc_cycle) << "txn " << i;
      EXPECT_EQ(par.log[i].addr, seq.log[i].addr) << "txn " << i;
      EXPECT_EQ(par.log[i].value, seq.log[i].value) << "txn " << i;
      EXPECT_EQ(par.log[i].is_write, seq.log[i].is_write) << "txn " << i;
    }
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
// must match an uninterrupted run bit-exactly. Odd seeds run under the
// parallel-round kernel, so the save point also lands between parallel
// rounds; the engine alternates with the seed, so cold restores land in
// both engines, including threaded-code programs re-lowered from a
// cache rebuilt after restore.

class SnapshotFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SnapshotFuzz, RandomCycleSaveRestoreBitIdentical) {
  const uint32_t seed = seedBase() + GetParam();
  SCOPED_TRACE("seed: " + std::to_string(seed) + " (CABT_TEST_SEED base " +
               std::to_string(seedBase()) + " + param " +
               std::to_string(GetParam()) + ")");
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> ptrs;
  std::string gen_desc = "generator: cores=3";
  for (uint32_t core = 0; core < 3; ++core) {
    ProgramGenerator gen(
        GeneratorConfig{seed + 1000 * core, /*shared_traffic=*/true});
    gen_desc += " core" + std::to_string(core) + "=[" +
                fuzz::describe(gen.config()) + "]";
    images.push_back(trc::assemble(gen.generate()));
  }
  SCOPED_TRACE(gen_desc);
  for (const elf::Object& obj : images) {
    ptrs.push_back(&obj);
  }
  const bool parallel = GetParam() % 2 == 1;
  const bool threaded = (GetParam() / 2) % 2 == 1;
  SCOPED_TRACE("config: parallel=" + std::to_string(parallel) +
               " engine=" + (threaded ? "threaded" : "step"));
  const auto build = [&] {
    platform::BoardConfig cfg;
    cfg.quantum = 256;
    cfg.iss.use_block_cache = threaded;
    // Aggressive formation so short fuzz programs still exercise traces
    // and threaded lowering before the random save point.
    cfg.iss.trace_threshold = 2;
    cfg.iss.threaded_threshold = 2;
    cfg.parallel.enabled = parallel;
    cfg.parallel.workers = 2;
    return std::make_unique<platform::ReferenceBoard>(desc, ptrs, cfg);
  };

  struct Obs {
    std::vector<iss::IssStats> stats;
    std::vector<std::array<uint32_t, 32>> regs;
    std::vector<uint32_t> pc;
    std::vector<soc::Transaction> log;
    uint64_t bus_cycle = 0;
    uint64_t digest = 0;
  };
  const auto observe = [](platform::ReferenceBoard& board) {
    Obs o;
    for (size_t i = 0; i < board.numCores(); ++i) {
      o.stats.push_back(board.core(i).stats());
      std::array<uint32_t, 32> regs{};
      for (int j = 0; j < 16; ++j) {
        regs[static_cast<size_t>(j)] = board.core(i).d(j);
        regs[static_cast<size_t>(j) + 16] = board.core(i).a(j);
      }
      o.regs.push_back(regs);
      o.pc.push_back(board.core(i).pc());
    }
    o.log = board.board().bus.log();
    o.bus_cycle = board.board().bus.socCycle();
    o.digest = snap::digest(board);
    return o;
  };

  std::unique_ptr<platform::ReferenceBoard> ref = build();
  ASSERT_EQ(ref->run(), iss::StopReason::kHalted);
  const Obs want = observe(*ref);
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
  const Obs got = observe(*fresh);

  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (size_t i = 0; i < want.stats.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    EXPECT_EQ(got.stats[i].instructions, want.stats[i].instructions);
    EXPECT_EQ(got.stats[i].cycles, want.stats[i].cycles);
    EXPECT_EQ(got.stats[i].io_reads, want.stats[i].io_reads);
    EXPECT_EQ(got.stats[i].io_writes, want.stats[i].io_writes);
    EXPECT_EQ(got.regs[i], want.regs[i]);
    EXPECT_EQ(got.pc[i], want.pc[i]);
  }
  EXPECT_EQ(got.bus_cycle, want.bus_cycle);
  EXPECT_EQ(got.digest, want.digest);
  ASSERT_EQ(got.log.size(), want.log.size());
  for (size_t i = 0; i < want.log.size(); ++i) {
    EXPECT_EQ(got.log[i].soc_cycle, want.log[i].soc_cycle) << "txn " << i;
    EXPECT_EQ(got.log[i].addr, want.log[i].addr) << "txn " << i;
    EXPECT_EQ(got.log[i].value, want.log[i].value) << "txn " << i;
    EXPECT_EQ(got.log[i].is_write, want.log[i].is_write) << "txn " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Range<uint32_t>(1, 11));

}  // namespace
}  // namespace cabt
