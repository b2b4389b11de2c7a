// Debug interface tests (paper section 3.5): dual translation,
// breakpoints at block starts, automatic single-stepping to mid-block
// breakpoints, image switching, register-name translation.
#include <gtest/gtest.h>

#include <vector>

#include "debug/debugger.h"
#include "iss/iss.h"
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

TEST(Debugger, RunContinuesFromMidBlockBreakpoint) {
  // Each run() from a mid-block stop executes the stopped-at instruction
  // first: the breakpoint hits once per loop pass, then the program
  // halts. The bound turns a run() that makes no progress into a
  // failure, not a hang.
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(defaultArch(), src);
  dbg.addBreakpoint(0x8000000c);
  std::vector<uint32_t> d0_at_stops;
  Stop stop = dbg.run();
  for (int runs = 1; stop.kind == StopKind::kBreakpoint && runs < 10;
       ++runs) {
    EXPECT_EQ(stop.src_addr, 0x8000000cu);
    d0_at_stops.push_back(dbg.d(0));
    stop = dbg.run();
  }
  EXPECT_EQ(d0_at_stops, (std::vector<uint32_t>{3, 2, 1}));
  ASSERT_EQ(stop.kind, StopKind::kHalted);
  EXPECT_EQ(dbg.d(1), 6u);
  EXPECT_EQ(dbg.d(2), 99u);
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
  // mid-block breakpoint on each pass, and on from it to the next leader
  // where the block image resumes, must leave the cache words equal to
  // the reference's.
  const arch::ArchDescription desc = defaultArch();
  const elf::Object src = trc::assemble(kProgram);
  Debugger dbg(desc, src, xlat::DetailLevel::kICache);
  EXPECT_GT(dbg.dual().block.stats.cab_lookups_elided, 0u);
  dbg.addBreakpoint(0x8000000c);
  int hits = 0;
  for (Stop s = dbg.run(); s.kind == StopKind::kBreakpoint && hits < 10;
       s = dbg.run()) {
    ++hits;
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

}  // namespace
}  // namespace cabt::debug
