// Debug interface tests (paper section 3.5): dual translation,
// breakpoints at block starts, automatic single-stepping to mid-block
// breakpoints, image switching, register-name translation.
#include <gtest/gtest.h>

#include <vector>

#include "common/serial.h"
#include "debug/debugger.h"
#include "iss/iss.h"
#include "snap/observe.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"

namespace cabt::debug {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

const char* kProgram = R"(
_start: movi d0, 3
        movi d1, 0
loop:   add d1, d1, d0      ; 0x80000008
        addi16 d0, -1       ; 0x8000000c
        jnz16 d0, loop      ; 0x8000000e
        movi d2, 99         ; 0x80000010
        halt
)";

TEST(DualTranslation, BuildsBothImages) {
  const elf::Object src = trc::assemble(kProgram);
  const DualTranslation dual = translateDual(defaultArch(), src);
  EXPECT_NE(dual.image.findSection(".text"), nullptr);
  EXPECT_NE(dual.image.findSection(".text.instr"), nullptr);
  EXPECT_EQ(dual.instr.instr_map.size(), 7u);  // one unit per instruction
  EXPECT_EQ(dual.yield_pc_to_src.size(), 7u);
}

TEST(Debugger, RunToHaltWithoutBreakpoints) {
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(defaultArch(), src);
  const Stop stop = dbg.run();
  EXPECT_EQ(stop.kind, StopKind::kHalted);
  EXPECT_EQ(dbg.d(1), 6u);  // 3+2+1
  EXPECT_EQ(dbg.d(2), 99u);
}

TEST(Debugger, BreakpointAtBlockStart) {
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(defaultArch(), src);
  dbg.addBreakpoint(0x80000008);  // 'loop' leader
  Stop stop = dbg.run();
  ASSERT_EQ(stop.kind, StopKind::kBreakpoint);
  EXPECT_EQ(stop.src_addr, 0x80000008u);
  EXPECT_EQ(dbg.d(0), 3u);
  EXPECT_EQ(dbg.d(1), 0u);  // add has not executed yet
  // Second hit: one loop iteration later.
  stop = dbg.run();
  ASSERT_EQ(stop.kind, StopKind::kBreakpoint);
  EXPECT_EQ(dbg.d(1), 3u);
  EXPECT_EQ(dbg.d(0), 2u);
}

TEST(Debugger, MidBlockBreakpointViaSingleStep) {
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(defaultArch(), src);
  // 0x8000000c (addi16) is in the middle of the 'loop' block: the
  // debugger plants the breakpoint at the block start and steps to it.
  dbg.addBreakpoint(0x8000000c);
  const Stop stop = dbg.run();
  ASSERT_EQ(stop.kind, StopKind::kBreakpoint);
  EXPECT_EQ(stop.src_addr, 0x8000000cu);
  EXPECT_EQ(dbg.d(1), 3u);  // the add before it has executed
  EXPECT_EQ(dbg.d(0), 3u);  // the addi16 has not
}

TEST(Debugger, SingleStepsThroughTheProgram) {
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(defaultArch(), src);
  // Step from the very beginning: movi, movi, then the loop.
  Stop s = dbg.step();
  ASSERT_EQ(s.kind, StopKind::kStep);
  EXPECT_EQ(s.src_addr, 0x80000004u);
  EXPECT_EQ(dbg.d(0), 3u);
  s = dbg.step();
  EXPECT_EQ(s.src_addr, 0x80000008u);
  s = dbg.step();  // add
  EXPECT_EQ(dbg.d(1), 3u);
  EXPECT_EQ(s.src_addr, 0x8000000cu);
  s = dbg.step();  // addi16
  EXPECT_EQ(dbg.d(0), 2u);
  s = dbg.step();  // jnz16 taken -> back to loop
  EXPECT_EQ(s.src_addr, 0x80000008u);
}

TEST(Debugger, StepAfterBreakpointAndContinue) {
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(defaultArch(), src);
  dbg.addBreakpoint(0x80000008);
  EXPECT_EQ(dbg.run().kind, StopKind::kBreakpoint);
  // Step over the add.
  const Stop s = dbg.step();
  EXPECT_EQ(s.src_addr, 0x8000000cu);
  EXPECT_EQ(dbg.d(1), 3u);
  // Continue: back around the loop to the breakpoint.
  const Stop c = dbg.run();
  ASSERT_EQ(c.kind, StopKind::kBreakpoint);
  EXPECT_EQ(c.src_addr, 0x80000008u);
  EXPECT_EQ(dbg.d(0), 2u);
  // Remove the breakpoint and run to completion.
  dbg.removeBreakpoint(0x80000008);
  EXPECT_EQ(dbg.run().kind, StopKind::kHalted);
  EXPECT_EQ(dbg.d(1), 6u);
}

TEST(Debugger, RegisterNameTranslation) {
  const elf::Object src = trc::assemble(R"(
_start: movi d7, 1234
        movha a3, 0x1000
        halt
)");
  Debugger dbg(defaultArch(), src);
  EXPECT_EQ(dbg.run().kind, StopKind::kHalted);
  EXPECT_EQ(dbg.regByName("d7"), 1234u);
  EXPECT_EQ(dbg.regByName("a3"), 0x10000000u);
  EXPECT_THROW(static_cast<void>(dbg.regByName("x1")), Error);
  EXPECT_THROW(static_cast<void>(dbg.regByName("d16")), Error);
}

TEST(Debugger, MemoryAccessAppliesRemap) {
  const elf::Object src = trc::assemble(R"(
_start: movha a0, hi(var)
        lea a0, a0, lo(var)
        movi d1, 77
        stw d1, [a0]0
        halt
        .data
var:    .word 0
)");
  Debugger dbg(defaultArch(), src);
  EXPECT_EQ(dbg.run().kind, StopKind::kHalted);
  // var lives at source 0xd0000000, remapped to 0x00800000; the debugger
  // translates the address like the paper's debug interface.
  EXPECT_EQ(dbg.readMemory(src.findSymbol("var")->value, 4), 77u);
}

TEST(Debugger, StepThroughCallsAndReturns) {
  const elf::Object src = trc::assemble(R"(
_start: movi d0, 5
        jl double           ; 0x80000004
        movi d3, 1          ; 0x80000008
        halt
double: add d0, d0, d0      ; 0x80000010
        ret16
)");
  Debugger dbg(defaultArch(), src);
  Stop s = dbg.step();  // movi
  EXPECT_EQ(s.src_addr, 0x80000004u);
  s = dbg.step();  // jl -> lands on 'double'
  EXPECT_EQ(s.src_addr, 0x80000010u);
  EXPECT_EQ(dbg.a(11), 0x80000008u);  // source return address visible
  s = dbg.step();  // add
  EXPECT_EQ(dbg.d(0), 10u);
  s = dbg.step();  // ret16 -> back at the return site
  EXPECT_EQ(s.src_addr, 0x80000008u);
  EXPECT_EQ(dbg.run().kind, StopKind::kHalted);
  EXPECT_EQ(dbg.d(3), 1u);
}

TEST(Debugger, CycleGenerationContinuesWhileDebugging) {
  const elf::Object src = trc::assemble(kProgram);
  // Reference cycle count.
  iss::Iss ref(defaultArch(), src);
  EXPECT_EQ(ref.run(), iss::StopReason::kHalted);

  Debugger dbg(defaultArch(), src);
  dbg.addBreakpoint(0x80000010);
  EXPECT_EQ(dbg.run().kind, StopKind::kBreakpoint);
  while (dbg.run().kind != StopKind::kHalted) {
  }
  // The generated cycle stream exists (annotated translation); mixing
  // images changes pairing granularity, so the count is an upper bound of
  // the block-oriented one.
  EXPECT_GT(dbg.platform().sync().totalGenerated(), 0u);
}

TEST(Debugger, CacheWordsStayExactAcrossImageSwitches) {
  // At icache level the block image omits the lookups the MRU analysis
  // proved to be hits ('loop' re-enters its own line), while the stepping
  // image keeps every lookup and shares the cache area. Stepping to a
  // mid-block breakpoint on each pass and re-entering the block image at
  // the next leader must leave the cache words equal to the reference's.
  const arch::ArchDescription desc = defaultArch();
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(desc, src, xlat::DetailLevel::kICache);
  EXPECT_GT(dbg.dual().block.stats.cab_lookups_elided, 0u);
  dbg.addBreakpoint(0x8000000c);
  int hits = 0;
  for (Stop s = dbg.run(); s.kind == StopKind::kBreakpoint && hits < 10;
       s = dbg.run()) {
    ++hits;
    dbg.step();  // past the breakpoint, then back to full speed
  }
  EXPECT_EQ(hits, 3);
  iss::Iss ref(desc, src);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);
  EXPECT_EQ(platform::compareFinalState(desc, ref, dbg.platform(), src), "");
}

TEST(Debugger, WorksOnWorkload) {
  const workloads::Workload& w = workloads::get("gcd");
  const elf::Object src = workloads::assemble(w);
  Debugger dbg(defaultArch(), src);
  EXPECT_EQ(dbg.run().kind, StopKind::kHalted);
  EXPECT_EQ(dbg.d(9), 214u);  // gcd checksum
}

// ---- ISS debug breakpoints vs the block-dispatch engine ------------------

// A nested loop whose inner block gets hot in the predecoded block cache
// before a breakpoint is planted mid-way inside it.
const char* kNestedLoops = R"(
_start: movi d5, 10          ; 0x80000000  outer counter
        movi d1, 0           ; 0x80000004
outer:  movi d0, 20          ; 0x80000008  inner counter
inner:  add d1, d1, d0       ; 0x8000000c  <- hot block leader
        xor d2, d1, d5       ; 0x80000010  <- mid-block breakpoint site
        addi16 d0, -1        ; 0x80000014
        jnz16 d0, inner      ; 0x80000016
        addi16 d5, -1        ; 0x80000018  <- staging breakpoint (leader)
        jnz16 d5, outer      ; 0x8000001a
        movi d3, 99          ; 0x8000001c
        halt
)";

TEST(IssBreakpoints, MidBlockBreakpointInHotCachedBlockFallsBack) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss iss(defaultArch(), obj);

  // Phase 1: run the first outer iteration at full block-dispatch speed,
  // stopping at the (block-leader) staging breakpoint. The inner block
  // is now hot in the cache: dispatched 20 times.
  iss.addBreakpoint(0x80000018);
  ASSERT_EQ(iss.run(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(iss.pc(), 0x80000018u);
  const auto hot = iss.hotBlocks(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].addr, 0x8000000cu);
  EXPECT_EQ(hot[0].exec_count, 20u);

  // Phase 2: plant a breakpoint mid-way inside that already-hot block.
  // The dispatcher must refuse the cached block and stop exactly on the
  // breakpoint, not at the block end.
  iss.removeBreakpoint(0x80000018);
  iss.addBreakpoint(0x80000010);
  ASSERT_EQ(iss.run(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(iss.pc(), 0x80000010u);
  // The leader instruction of the re-entered block has executed, the
  // breakpointed one has not: 2 prologue + (1 + 20*4) first outer
  // iteration + 2 outer-loop tail + 1 inner re-entry leader + the
  // re-entered add = 87.
  EXPECT_EQ(iss.stats().instructions, 87u);

  // Every further resume stops at the next crossing, once per iteration.
  ASSERT_EQ(iss.run(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(iss.pc(), 0x80000010u);

  // Phase 3: remove it; the rest of the program runs to completion with
  // a final state identical to an unbroken reference run — breakpoints
  // perturb neither architectural state nor the cycle model.
  iss.removeBreakpoint(0x80000010);
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);

  iss::Iss ref(defaultArch(), obj);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);
  EXPECT_EQ(snap::firstMismatch(snap::observe(ref), snap::observe(iss)), "");
  EXPECT_EQ(iss.d(3), 99u);
}

TEST(IssBreakpoints, BlockAndSteppingEnginesStopIdentically) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::IssConfig step_cfg;
  step_cfg.use_block_cache = false;
  iss::Iss fast(defaultArch(), obj);
  iss::Iss slow(defaultArch(), obj, nullptr, step_cfg);
  for (iss::Iss* v : {&fast, &slow}) {
    v->addBreakpoint(0x80000010);
  }
  // Both engines stop at the same pc with the same state at every one of
  // the 200 crossings.
  for (int hit = 0; hit < 200; ++hit) {
    ASSERT_EQ(fast.run(), iss::StopReason::kDebugBreak) << hit;
    ASSERT_EQ(slow.run(), iss::StopReason::kDebugBreak) << hit;
    ASSERT_EQ(snap::firstMismatch(snap::observe(slow), snap::observe(fast)),
              "")
        << hit;
  }
  ASSERT_EQ(fast.run(), iss::StopReason::kHalted);
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(snap::firstMismatch(snap::observe(slow), snap::observe(fast)), "");
}

// ---- snapshot save/restore under breakpoints -----------------------------

// A core saved while stopped *at* a breakpoint (mid-block, pending
// step-over) must restore into a cold core that resumes exactly like the
// live one: the stopped-at instruction executes on resume (no double
// break), and the next crossing stops at the identical instruction and
// cycle counts.
TEST(IssBreakpoints, SaveRestoreWhileStoppedAtBreakpoint) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss live(defaultArch(), obj);
  live.addBreakpoint(0x80000010);
  ASSERT_EQ(live.run(), iss::StopReason::kDebugBreak);
  ASSERT_EQ(live.run(), iss::StopReason::kDebugBreak);  // second crossing
  serial::Writer w;
  live.saveState(w);
  const std::vector<uint8_t> snapshot = w.take();

  ASSERT_EQ(live.run(), iss::StopReason::kDebugBreak);  // third crossing
  const uint64_t want_instr = live.stats().instructions;
  const uint64_t want_cycles = live.stats().cycles;

  iss::Iss cold(defaultArch(), obj);
  serial::Reader r(snapshot);
  cold.restoreState(r);
  EXPECT_EQ(cold.stopReason(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(cold.pc(), 0x80000010u);
  EXPECT_EQ(cold.breakpoints().size(), 1u);
  ASSERT_EQ(cold.run(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(cold.pc(), 0x80000010u);
  EXPECT_EQ(cold.stats().instructions, want_instr);
  EXPECT_EQ(cold.stats().cycles, want_cycles);

  // Both finish identically after the breakpoint is lifted.
  live.removeBreakpoint(0x80000010);
  cold.removeBreakpoint(0x80000010);
  ASSERT_EQ(live.run(), iss::StopReason::kHalted);
  ASSERT_EQ(cold.run(), iss::StopReason::kHalted);
  EXPECT_EQ(snap::firstMismatch(snap::observe(live), snap::observe(cold)),
            "");
}

// Restoring into a core whose block cache ran hot with *no* breakpoints
// must revalidate the per-block breakpoint flags from the restored set —
// the warm cached inner block may not dispatch past the restored
// mid-block breakpoint, however hot it is.
TEST(IssBreakpoints, RestoredBreakpointSetRevalidatesHotBlocks) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  // Donor: stopped at the staging leader, then a breakpoint planted
  // mid-way inside the hot inner block (the Phase-2 state of
  // MidBlockBreakpointInHotCachedBlockFallsBack).
  iss::Iss donor(defaultArch(), obj);
  donor.addBreakpoint(0x80000018);
  ASSERT_EQ(donor.run(), iss::StopReason::kDebugBreak);
  donor.removeBreakpoint(0x80000018);
  donor.addBreakpoint(0x80000010);
  serial::Writer w;
  donor.saveState(w);

  // Target: the same program run hot to completion with clean per-block
  // flags, then rewound via the snapshot.
  iss::Iss target(defaultArch(), obj);
  ASSERT_EQ(target.run(), iss::StopReason::kHalted);
  serial::Reader r(w.data());
  target.restoreState(r);
  ASSERT_EQ(target.run(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(target.pc(), 0x80000010u);
  EXPECT_EQ(target.stats().instructions, 87u);  // the live run's count
}

}  // namespace
}  // namespace cabt::debug
