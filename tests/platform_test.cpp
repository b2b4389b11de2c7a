// Emulation-platform tests: synchronization handshake, bus bridge
// behaviour, state comparison helpers, and architecture-description
// variants driven through the whole translate-and-run flow (the paper's
// retargetability claim: the translator adapts to the processor via the
// description, not via code changes).
#include <gtest/gtest.h>

#include "iss/iss.h"
#include "platform/platform.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt::platform {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

TEST(Platform, SyncWaitStallsUntilGenerationDone) {
  // At a slow generation rate the block executes faster than its cycles
  // are generated: the wait instruction must stall.
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 1
        movi d2, 2
        movi d3, 3
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kStatic;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);

  PlatformConfig fast;
  fast.vliw_cycles_per_soc_cycle = 1;
  EmulationPlatform p1(desc, t.image, fast);
  const RunResult r1 = p1.run();

  PlatformConfig slow;
  slow.vliw_cycles_per_soc_cycle = 8;
  EmulationPlatform p2(desc, t.image, slow);
  const RunResult r2 = p2.run();

  EXPECT_EQ(r1.generated_cycles, r2.generated_cycles);
  EXPECT_GT(r2.sync_stall_cycles, r1.sync_stall_cycles);
  EXPECT_GT(r2.vliw_cycles, r1.vliw_cycles);
}

TEST(Platform, PeripheralsSeeOnlyGeneratedCycles) {
  // The timer is clocked by the synchronization device: at the functional
  // level nothing generates cycles, so the timer never advances.
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d0, 20
loop:   addi16 d0, -1
        jnz16 d0, loop
        ldw d1, [a0]0x100
        halt
)");
  const arch::ArchDescription desc = [] {
    arch::ArchDescription d = defaultArch();
    d.icache.enabled = false;
    return d;
  }();
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kBranchPredict}) {
    xlat::TranslateOptions opts;
    opts.level = level;
    const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
    EmulationPlatform plat(desc, t.image);
    EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
    if (level == xlat::DetailLevel::kFunctional) {
      EXPECT_EQ(plat.srcD(1), 0u);  // timer frozen without cycle generation
    } else {
      EXPECT_GT(plat.srcD(1), 0u);
      EXPECT_LE(plat.srcD(1), plat.sync().totalGenerated());
    }
  }
}

TEST(Platform, BridgeTransactionsLandWithinGeneratedTime) {
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d1, 65
        stw d1, [a0]0x200
        movi d1, 66
        stw d1, [a0]0x200
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kICache;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  EmulationPlatform plat(desc, t.image);
  EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
  EXPECT_EQ(plat.board().chardev.output(), "AB");
  // Every transaction timestamp lies within the generated cycle stream.
  for (const soc::Transaction& tr : plat.board().bus.log()) {
    EXPECT_GE(plat.sync().totalGenerated(), tr.soc_cycle);
  }
  // The probe property: the peripheral clock equals the generated count.
  EXPECT_EQ(plat.board().timer.count(), plat.sync().totalGenerated());
}

TEST(Platform, BreakpointStopsLeaveCycleGenerationUntouched) {
  // Driving sim().run()/resume() directly, as the debugger does: stopping
  // at breakpoints and resuming must not clock the synchronization device
  // an extra time, so every modelled count matches a run without stops.
  const arch::ArchDescription desc = defaultArch();
  const elf::Object obj = workloads::assemble(workloads::get("gcd"));
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kICache;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  PlatformConfig cfg;
  cfg.vliw_cycles_per_soc_cycle = 4;  // generation lags: many sync stalls

  EmulationPlatform plain(desc, t.image, cfg);
  ASSERT_EQ(plain.sim().run(cfg.max_cycles), vliw::RunState::kHalted);

  EmulationPlatform stopped(desc, t.image, cfg);
  const std::vector<vliw::Packet>& packets = stopped.sim().packets();
  for (size_t i = 1; i < packets.size(); i += 4) {
    stopped.sim().addBreakpoint(packets[i].addr);
  }
  uint64_t stops = 0;
  vliw::RunState state = stopped.sim().run(cfg.max_cycles);
  while (state == vliw::RunState::kBreakpoint) {
    ++stops;
    state = stopped.sim().resume(cfg.max_cycles);
  }
  ASSERT_EQ(state, vliw::RunState::kHalted);
  EXPECT_GT(stops, 10u);

  const vliw::SimStats& a = plain.sim().stats();
  const vliw::SimStats& b = stopped.sim().stats();
  EXPECT_GT(a.stall_cycles, 0u);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.nop_cycles, b.nop_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.branches_taken, b.branches_taken);
  EXPECT_EQ(plain.sync().totalGenerated(), stopped.sync().totalGenerated());
  EXPECT_EQ(plain.sync().correctionTotal(), stopped.sync().correctionTotal());
  EXPECT_EQ(plain.sync().numStarts(), stopped.sync().numStarts());
}

TEST(Platform, ResumedWaitStopsOncePerArrival) {
  // A breakpoint on the packet holding the status wait stops once when
  // the packet arrives. Resuming issues the packet after its whole wait,
  // without stopping again at the retry, and the run ends with the same
  // totals as one without the breakpoint.
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 1
        movi d2, 2
        movi d3, 3
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kStatic;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  PlatformConfig cfg;
  cfg.vliw_cycles_per_soc_cycle = 8;

  // The wait's packet is where the cycle-by-cycle run first stalls.
  EmulationPlatform plain(desc, t.image, cfg);
  while (plain.sim().stats().stall_cycles == 0) {
    ASSERT_EQ(plain.sim().run(1), vliw::RunState::kMaxCycles);
  }
  const uint32_t wait_packet = plain.sim().pc();
  ASSERT_EQ(plain.sim().run(cfg.max_cycles), vliw::RunState::kHalted);

  EmulationPlatform stopped(desc, t.image, cfg);
  stopped.sim().addBreakpoint(wait_packet);
  uint64_t stops = 0;
  vliw::RunState state = stopped.sim().run(cfg.max_cycles);
  while (state == vliw::RunState::kBreakpoint && stops < 100) {
    ++stops;
    EXPECT_EQ(stopped.sim().pc(), wait_packet);
    state = stopped.sim().resume(cfg.max_cycles);
  }
  ASSERT_EQ(state, vliw::RunState::kHalted);
  EXPECT_EQ(stops, 1u);

  const vliw::SimStats& a = plain.sim().stats();
  const vliw::SimStats& b = stopped.sim().stats();
  EXPECT_GT(a.stall_cycles, 1u);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(plain.sync().totalGenerated(), stopped.sync().totalGenerated());
}

/// Expects two platforms to be indistinguishable: every SimStats field,
/// all 64 V6X registers, the pc, the generated cycle count, the timer,
/// the bus log and the chardev output.
void expectSamePlatform(EmulationPlatform& want, EmulationPlatform& got,
                        const std::string& where) {
  const vliw::SimStats& a = want.sim().stats();
  const vliw::SimStats& b = got.sim().stats();
  EXPECT_EQ(b.cycles, a.cycles) << where;
  EXPECT_EQ(b.issue_cycles, a.issue_cycles) << where;
  EXPECT_EQ(b.packets, a.packets) << where;
  EXPECT_EQ(b.ops, a.ops) << where;
  EXPECT_EQ(b.nop_cycles, a.nop_cycles) << where;
  EXPECT_EQ(b.stall_cycles, a.stall_cycles) << where;
  EXPECT_EQ(b.branches_taken, a.branches_taken) << where;
  for (uint8_t r = 0; r < 2 * vliw::kRegsPerFile; ++r) {
    EXPECT_EQ(got.sim().reg(r), want.sim().reg(r))
        << vliw::regName(r) << " " << where;
  }
  EXPECT_EQ(got.sim().pc(), want.sim().pc()) << where;
  EXPECT_EQ(got.sync().totalGenerated(), want.sync().totalGenerated())
      << where;
  EXPECT_EQ(got.board().timer.count(), want.board().timer.count()) << where;
  EXPECT_TRUE(got.board().bus.log() == want.board().bus.log()) << where;
  EXPECT_EQ(got.board().chardev.output(), want.board().chardev.output())
      << where;
}

TEST(Platform, StallJumpsEqualCycleByCycle) {
  // A sync-wait or bridge stall passes in one step: one run() must equal
  // a run of one-cycle budgets, which asks the handlers and reports the
  // clock at every cycle, on every program, level and generation rate.
  std::vector<std::pair<std::string, elf::Object>> programs;
  for (const std::string& name : workloads::figure5Names()) {
    programs.emplace_back(name, workloads::assemble(workloads::get(name)));
  }
  programs.emplace_back("fibonacci",
                        workloads::assemble(workloads::get("fibonacci")));
  programs.emplace_back("bridge", trc::assemble(R"(
_start: movha a0, 0xf000
        movi d0, 12
loop:   movi d1, 64
        add d1, d1, d0
        stw d1, [a0]0x200
        ldw d2, [a0]0x100
        add d3, d3, d2
        addi16 d0, -1
        jnz16 d0, loop
        halt
)"));
  const arch::ArchDescription desc = defaultArch();
  for (const auto& [name, obj] : programs) {
    for (const xlat::DetailLevel level :
         {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
          xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
      xlat::TranslateOptions opts;
      opts.level = level;
      const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
      for (const unsigned rate : {1u, 2u, 5u, 8u}) {
        const std::string where = name + ", level " +
                                  std::to_string(static_cast<int>(level)) +
                                  ", rate " + std::to_string(rate);
        PlatformConfig cfg;
        cfg.vliw_cycles_per_soc_cycle = rate;
        EmulationPlatform whole(desc, t.image, cfg);
        ASSERT_EQ(whole.sim().run(cfg.max_cycles), vliw::RunState::kHalted)
            << where;
        EmulationPlatform single(desc, t.image, cfg);
        vliw::RunState state = vliw::RunState::kMaxCycles;
        while (state == vliw::RunState::kMaxCycles) {
          state = single.sim().run(1);
        }
        ASSERT_EQ(state, vliw::RunState::kHalted) << where;
        expectSamePlatform(whole, single, where);
      }
    }
  }
}

TEST(Platform, ValuesMatchIsRemapAware) {
  const arch::ArchDescription desc = defaultArch();
  EXPECT_TRUE(valuesMatch(desc, 42, 42));
  // 0xd0000010 remaps to 0x00800010.
  EXPECT_TRUE(valuesMatch(desc, 0xd0000010, 0x00800010));
  EXPECT_FALSE(valuesMatch(desc, 0xd0000010, 0x00800014));
  EXPECT_FALSE(valuesMatch(desc, 41, 42));
}

TEST(Platform, CompareFinalStateFindsDifferences) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d5, 7
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  iss::Iss ref(desc, obj);
  EXPECT_EQ(ref.run(), iss::StopReason::kHalted);
  const xlat::TranslationResult t = xlat::translate(desc, obj, {});
  EmulationPlatform plat(desc, t.image);
  EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
  EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
  // Perturb one register: the comparison reports it.
  plat.sim().setReg(xlat::srcD(5), 8);
  EXPECT_NE(compareFinalState(desc, ref, plat, obj).find("d5"),
            std::string::npos);
}

TEST(Platform, CompareFinalStateChecksTheSimulatedCache) {
  // At icache level every comparison also checks the translated image's
  // cache words against the reference's behavioural model, and names the
  // first set and way that differ.
  const elf::Object obj = trc::assemble(R"(
_start: movi d5, 7
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  iss::Iss ref(desc, obj);
  EXPECT_EQ(ref.run(), iss::StopReason::kHalted);
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kICache;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  EmulationPlatform plat(desc, t.image);
  EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
  ASSERT_TRUE(plat.cacheDataAddr().has_value());
  EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
  // Flip the valid bit of set 5, way 1 (two tag words and one LRU word
  // per set).
  const uint32_t word = *plat.cacheDataAddr() + 5 * 12 + 4;
  SparseMemory& mem = plat.sim().memory();
  mem.write32(word, mem.read32(word) ^ 1u);
  EXPECT_NE(compareFinalState(desc, ref, plat, obj)
                .find("icache set 5 way 1 tag word"),
            std::string::npos);
  mem.write32(word, mem.read32(word) ^ 1u);
  // Make way 1 the LRU way of set 5.
  mem.write32(word + 4, 1u);
  EXPECT_NE(compareFinalState(desc, ref, plat, obj).find("icache set 5 LRU"),
            std::string::npos);
}

// ---- architecture variants (retargetability via the description) --------

struct ArchVariant {
  const char* name;
  const char* xml;
};

class ArchVariants : public ::testing::TestWithParam<ArchVariant> {};

TEST_P(ArchVariants, TranslationTracksTheDescription) {
  // The same workload, translated for differently-described source
  // processors, must reproduce each description's cycle count exactly at
  // the icache level (or branch-predict level when the cache is off).
  const arch::ArchDescription desc = arch::parseArchXml(GetParam().xml);
  const elf::Object obj =
      workloads::assemble(workloads::get("gcd"));

  iss::Iss ref(desc, obj);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);

  xlat::TranslateOptions opts;
  opts.level = desc.icache.enabled ? xlat::DetailLevel::kICache
                                   : xlat::DetailLevel::kBranchPredict;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  EmulationPlatform plat(desc, t.image);
  const RunResult run = plat.run();
  ASSERT_EQ(run.state, vliw::RunState::kHalted);
  EXPECT_EQ(run.generated_cycles, ref.stats().cycles);
  EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
}

const ArchVariant kVariants[] = {
    {"single_issue", R"(
<processor name="single-issue" clock_hz="48000000">
  <pipeline dual_issue="0"/>
  <icache enabled="1" sets="16" ways="2" line_bytes="16" miss_penalty="4"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"
            remap="0x00800000"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
    {"slow_multiplier", R"(
<processor name="slow-mul" clock_hz="48000000">
  <pipeline dual_issue="1">
    <latency class="mul" cycles="6"/>
    <latency class="load" cycles="3"/>
  </pipeline>
  <branch taken_predicted_extra="2" mispredict_extra="4" indirect_extra="5"/>
  <icache enabled="0"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
    {"tiny_cache_big_penalty", R"(
<processor name="tiny-cache" clock_hz="48000000">
  <pipeline dual_issue="1"/>
  <icache enabled="1" sets="2" ways="2" line_bytes="32" miss_penalty="17"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"
            remap="0x00800000"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
    {"identity_ram_mapping", R"(
<processor name="identity" clock_hz="48000000">
  <pipeline dual_issue="1"/>
  <icache enabled="1" sets="64" ways="2" line_bytes="16" miss_penalty="8"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
};

INSTANTIATE_TEST_SUITE_P(Descriptions, ArchVariants,
                         ::testing::ValuesIn(kVariants),
                         [](const ::testing::TestParamInfo<ArchVariant>& i) {
                           return i.param.name;
                         });

}  // namespace
}  // namespace cabt::platform
