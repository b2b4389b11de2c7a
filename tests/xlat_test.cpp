// Translator unit tests: the block records the passes read (blocks,
// static cycles, cache analysis blocks), pass-level checks (address
// analysis, MRU-hit analysis) and end-to-end functional + cycle
// equivalence of translated programs against the reference ISS.
#include <algorithm>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/block_graph.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "trc/assembler.h"
#include "xlat/internal.h"
#include "xlat/translator.h"

namespace cabt::xlat {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

const char* kLoopProgram = R"(
_start: movi d0, 10
        movi d1, 0
loop:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, loop
        stw d1, [a0]0       ; a0 is 0 -> plain RAM at 0
        halt
)";

// ---- pass-level tests -----------------------------------------------------

TEST(Blocks, BuildsBasicBlocks) {
  const elf::Object obj = trc::assemble(kLoopProgram);
  const core::BlockGraph graph = core::BlockGraph::build(defaultArch(), obj);
  const std::vector<core::Block>& blocks = graph.blocks();
  // _start, loop, after-jnz (stw+halt).
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].count, 2u);
  EXPECT_EQ(blocks[1].count, 3u);
  EXPECT_EQ(blocks[2].count, 2u);
  EXPECT_TRUE(graph.last(blocks[1]).isControlTransfer());
}

TEST(Blocks, StaticCyclesMatchIssPerBlock) {
  // Property: the static per-block cycle prediction equals what the ISS
  // measures for each executed block (minus dynamic branch extras, which
  // are zero here because every branch is correctly predicted with no
  // extra: forward-not-taken... use straight-line code to keep it exact).
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 3
        movha a0, 0xd000
        ldw d2, [a0]0
        add d3, d2, d1
        mul d4, d3, d3
        stw d4, [a0]4
        halt
)");
  const arch::ArchDescription desc = [] {
    arch::ArchDescription d = defaultArch();
    d.icache.enabled = false;
    return d;
  }();
  const core::BlockGraph graph = core::BlockGraph::build(desc, obj);
  iss::Iss iss(desc, obj);
  EXPECT_EQ(iss.run(), iss::StopReason::kHalted);
  ASSERT_EQ(graph.blocks().size(), 1u);
  EXPECT_EQ(graph.blocks()[0].static_cycles, iss.stats().cycles);
}

TEST(Blocks, UnconditionalBranchExtraIsStatic) {
  const elf::Object obj = trc::assemble(R"(
_start: j next
next:   halt
)");
  const arch::ArchDescription desc = defaultArch();
  const core::BlockGraph graph = core::BlockGraph::build(desc, obj);
  ASSERT_EQ(graph.blocks().size(), 2u);
  // j: 1 issue cycle + taken_predicted_extra.
  EXPECT_EQ(graph.blocks()[0].static_cycles,
            1u + desc.branch.taken_predicted_extra);
}

TEST(Cabs, SplitAtCacheLineBoundaries) {
  // 16-byte lines; five 4-byte instructions cross one boundary.
  const elf::Object obj = trc::assemble(R"(
_start: nop
        nop
        nop
        nop
        halt
)");
  const core::BlockGraph graph = core::BlockGraph::build(defaultArch(), obj);
  ASSERT_EQ(graph.blocks().size(), 1u);
  const std::span<const core::CacheAnalysisBlock> cabs =
      graph.cabs(graph.blocks()[0]);
  ASSERT_EQ(cabs.size(), 2u);
  EXPECT_EQ(cabs[0].start, 0u);  // 0x80000000
  EXPECT_EQ(cabs[1].start, 4u);  // the halt, 0x80000010
  EXPECT_EQ(cabs[1].set, cabs[0].set + 1);
  // Tag word carries the valid bit.
  EXPECT_EQ(cabs[0].tag_word & 1u, 1u);
}

TEST(Cabs, MixedWidthInstructionsUseFirstByteRule) {
  // 16-bit instructions shift the line boundary.
  const elf::Object obj = trc::assemble(R"(
_start: nop16
        nop16
        nop16
        nop16
        nop16
        nop16
        nop16
        nop           ; starts at offset 14, first byte still line 0
        halt          ; starts at offset 18 -> line 1
)");
  const core::BlockGraph graph = core::BlockGraph::build(defaultArch(), obj);
  const std::span<const core::CacheAnalysisBlock> cabs =
      graph.cabs(graph.blocks()[0]);
  ASSERT_EQ(cabs.size(), 2u);
  EXPECT_EQ(cabs[1].start, 8u);  // the halt
}

TEST(AddrAnalysis, ConstantPropagationFindsEffectiveAddresses) {
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xd000
        lea a1, a0, 0x100
        ldw d1, [a1]8
        mova a2, d1          ; unknown (data value)
        ldw d2, [a2]0
        halt
)");
  const AddressAnalysis aa =
      analyzeAddresses(defaultArch(),
                       core::BlockGraph::build(defaultArch(), obj));
  EXPECT_EQ(aa.ram_accesses, 1u);
  EXPECT_EQ(aa.unknown_accesses, 1u);
  ASSERT_TRUE(aa.known_ea.count(0x80000008));
  EXPECT_EQ(aa.known_ea.at(0x80000008), 0xd0000108u);
}

TEST(AddrAnalysis, ClassifiesIoAccesses) {
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        stw d1, [a0]0x200
        halt
)");
  const AddressAnalysis aa =
      analyzeAddresses(defaultArch(),
                       core::BlockGraph::build(defaultArch(), obj));
  EXPECT_EQ(aa.io_accesses, 1u);
  // The I/O region is identity-mapped: no MOVHA rewrite for it.
  EXPECT_TRUE(aa.movha_rewrites.empty());
}

TEST(AddrAnalysis, RewritesMovhaIntoRemappedRegion) {
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xd000
        halt
)");
  const AddressAnalysis aa =
      analyzeAddresses(defaultArch(),
                       core::BlockGraph::build(defaultArch(), obj));
  // 0xd0000000 remaps to 0x00800000: new high immediate is 0x0080.
  ASSERT_EQ(aa.movha_rewrites.size(), 1u);
  EXPECT_EQ(aa.movha_rewrites.begin()->second, 0x0080);
}

TEST(AddrAnalysis, JoinOverBranchesIsConservative) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 1
        movi d1, 2
        jeq d0, d1, other
        movha a0, 0xd000
        j join
other:  movha a0, 0xd001
join:   ldw d2, [a0]0
        halt
)");
  const AddressAnalysis aa =
      analyzeAddresses(defaultArch(),
                       core::BlockGraph::build(defaultArch(), obj));
  // a0 differs on the two paths: the access must be unknown.
  EXPECT_EQ(aa.unknown_accesses, 1u);
  EXPECT_EQ(aa.ram_accesses, 0u);
}

// ---- end-to-end -----------------------------------------------------------

struct EndToEnd {
  arch::ArchDescription desc;
  elf::Object source;
  std::unique_ptr<iss::Iss> reference;
  std::unique_ptr<platform::EmulationPlatform> plat;
  TranslationResult translation;
  platform::RunResult run;
};

EndToEnd runBoth(std::string_view program, DetailLevel level,
                 bool icache_on = true) {
  EndToEnd e;
  e.desc = defaultArch();
  e.desc.icache.enabled = icache_on;
  e.source = trc::assemble(program);
  e.reference = std::make_unique<iss::Iss>(e.desc, e.source);
  EXPECT_EQ(e.reference->run(), iss::StopReason::kHalted);

  TranslateOptions opts;
  opts.level = level;
  e.translation = translate(e.desc, e.source, opts);
  e.plat = std::make_unique<platform::EmulationPlatform>(e.desc,
                                                         e.translation.image);
  e.run = e.plat->run();
  EXPECT_EQ(e.run.state, vliw::RunState::kHalted);
  return e;
}

class AllLevels : public ::testing::TestWithParam<DetailLevel> {};

TEST_P(AllLevels, LoopProgramFunctionallyEquivalent) {
  EndToEnd e = runBoth(kLoopProgram, GetParam());
  EXPECT_EQ(e.plat->srcD(1), 55u);
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

TEST_P(AllLevels, CallsAndMemory) {
  EndToEnd e = runBoth(R"(
_start: movha a10, 0xd001     ; stack
        movha a0, hi(arr)
        lea a0, a0, lo(arr)
        movi d0, 5
        movi d5, 0
loop:   ldw d1, [a0]0
        jl accum
        lea a0, a0, 4
        addi16 d0, -1
        jnz16 d0, loop
        movha a1, hi(out)
        lea a1, a1, lo(out)
        stw d5, [a1]0
        halt
accum:  add d5, d5, d1
        ret16
        .data
arr:    .word 3, 1, 4, 1, 5
out:    .word 0
)", GetParam());
  EXPECT_EQ(e.plat->srcD(5), 14u);
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

TEST_P(AllLevels, MixedWidthAndAllCompares) {
  EndToEnd e = runBoth(R"(
_start: movi d1, -5
        movi d2, 7
        lt d3, d1, d2
        ltu d4, d1, d2
        ge d5, d1, d2
        geu d6, d1, d2
        eq d7, d1, d1
        ne d8, d1, d2
        movi16 d9, 3
        addi16 d9, 4
        mov16 d10, d9
        add16 d10, d2
        sub16 d10, d1
        halt
)", GetParam());
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

INSTANTIATE_TEST_SUITE_P(
    Levels, AllLevels, ::testing::ValuesIn(kDetailLevels),
    [](const ::testing::TestParamInfo<DetailLevel>& info) {
      std::string name = detailLevelName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(CycleAccuracy, StaticLevelMatchesIssWithoutDynamicEffects) {
  // With the icache off and only correctly-predicted-without-extra
  // branches (forward, not taken), level 1 is already exact.
  const char* program = R"(
_start: movi d0, 1
        movi d1, 2
        jeq d0, d1, skip    ; forward, not taken: no extra
        add d2, d0, d1
skip:   halt
)";
  EndToEnd e = runBoth(program, DetailLevel::kStatic, /*icache_on=*/false);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
}

TEST(CycleAccuracy, BranchPredictLevelMatchesIssWithoutICache) {
  EndToEnd e = runBoth(kLoopProgram, DetailLevel::kBranchPredict,
                       /*icache_on=*/false);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
  // The static level alone must UNDERcount (taken-branch extras missing).
  EndToEnd s = runBoth(kLoopProgram, DetailLevel::kStatic,
                       /*icache_on=*/false);
  EXPECT_LT(s.run.generated_cycles, s.reference->stats().cycles);
}

TEST(CycleAccuracy, ICacheLevelMatchesIssExactly) {
  EndToEnd e = runBoth(kLoopProgram, DetailLevel::kICache);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
  EXPECT_GT(e.run.correction_cycles, 0u);
}

TEST(CycleAccuracy, ICacheLevelExactOnCacheThrashingProgram) {
  // A call target far away forces extra lines; loop re-executes them.
  EndToEnd e = runBoth(R"(
_start: movi d0, 20
loop:   jl f1
        jl f2
        addi16 d0, -1
        jnz16 d0, loop
        halt
f1:     add d1, d1, d0
        ret16
        .align 64
f2:     add d2, d2, d0
        ret16
)", DetailLevel::kICache);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

// ---- code after a HALT -----------------------------------------------------

// The instruction after a HALT starts a new block, so what follows a HALT
// adds nothing to the HALT's static cycle count. Each level keeps its
// relation to the full-timing reference: icache exact, branch-predict
// exact but for the cache penalty, static never above.
void expectCycleRelations(std::string_view program) {
  for (const DetailLevel level : {DetailLevel::kStatic,
                                  DetailLevel::kBranchPredict,
                                  DetailLevel::kICache}) {
    SCOPED_TRACE(detailLevelName(level));
    EndToEnd e = runBoth(program, level);
    const iss::IssStats& ref = e.reference->stats();
    const uint64_t cache_penalty =
        ref.icache_misses * e.desc.icache.miss_penalty;
    switch (level) {
      case DetailLevel::kStatic:
        EXPECT_LE(e.run.generated_cycles, ref.cycles);
        break;
      case DetailLevel::kBranchPredict:
        EXPECT_EQ(e.run.generated_cycles + cache_penalty, ref.cycles);
        break;
      default:
        EXPECT_EQ(e.run.generated_cycles, ref.cycles);
        break;
    }
    EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source),
              "");
  }
}

TEST(CycleAccuracy, AlignmentPaddingAfterHaltCostsNothing) {
  // 48 bytes of nop16 padding sit between the halt and f1.
  expectCycleRelations(R"(
_start: movi d0, 3
loop:   jl f1
        addi16 d0, -1
        jnz16 d0, loop
done:   halt
        .align 64
f1:     add d1, d1, d0
        ret16
)");
}

TEST(CycleAccuracy, DeadCodeAfterHaltCostsNothing) {
  expectCycleRelations(R"(
_start: movi d0, 2
        jl f1
        halt
        add d2, d2, d2
        add d2, d2, d2
        add d2, d2, d2
        add d2, d2, d2
f1:     add d1, d1, d0
        ret16
)");
}

// ---- the lookup's slow path -----------------------------------------------

// Runs `program` to halt at icache level, block-oriented and through the
// debugger's instruction-oriented stepping image, and checks both against
// the reference: generated cycles and every cache word. The cache has 4
// sets, so lines 64 bytes apart share a set. The programs below use no
// load/store-class instruction, so no pair issues and a unit per
// instruction costs what the instruction costs inside its block.
void expectExactAtICacheLevel(std::string_view program,
                              uint64_t icache_misses) {
  arch::ArchDescription desc = defaultArch();
  desc.icache.sets = 4;
  const elf::Object obj = trc::assemble(program);
  iss::Iss ref(desc, obj);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);
  EXPECT_EQ(ref.stats().icache_misses, icache_misses);
  for (const bool instruction_oriented : {false, true}) {
    SCOPED_TRACE(instruction_oriented ? "instruction-oriented"
                                      : "block-oriented");
    TranslateOptions opts;
    opts.level = DetailLevel::kICache;
    opts.instruction_oriented = instruction_oriented;
    const TranslationResult r = translate(desc, obj, opts);
    platform::EmulationPlatform plat(desc, r.image);
    // The stepping image yields before every instruction.
    platform::RunResult run = plat.run();
    for (int yields = 0; run.state == vliw::RunState::kYielded &&
                         yields < 10'000;
         ++yields) {
      run = plat.run();
    }
    EXPECT_EQ(run.state, vliw::RunState::kHalted);
    EXPECT_EQ(run.generated_cycles, ref.stats().cycles);
    EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
  }
}

TEST(CacheLookupSlowPath, EveryWarmLookupHitsTheOtherWay) {
  // Lines a and b (both in set 1) alternate, so each warm lookup hits
  // the way that is not the MRU one: the inline compare fails and the
  // routine renews the LRU and MRU words. The loop leaves through b, and
  // c, a third line of set 1, then evicts a. A routine that left
  // the MRU word at b after a's hit would skip b's next lookup, leave b
  // as the LRU way, and make c evict b instead. Misses: _start's line,
  // a, b and c.
  expectExactAtICacheLevel(R"(
_start: movi d0, 6
        movi d9, 0
        j a
        .align 64
        .space 16
a:      add d1, d1, d0
        j b
        .align 64
        .space 16
b:      addi16 d0, -1
        jne d0, d9, a
        j c
        .align 64
        .space 16
c:      add d2, d2, d1
        halt
)", 4);
}

TEST(CacheLookupSlowPath, EveryLookupMisses) {
  // Three lines of set 1 cycle through its two ways, so every lookup
  // misses and fills the LRU way; d, a fourth line of the set, misses
  // after the loop. Misses: _start's line, 4 x 3 in the loop, and d.
  expectExactAtICacheLevel(R"(
_start: movi d0, 4
        movi d9, 0
        j a
        .align 64
        .space 16
a:      add d1, d1, d0
        j b
        .align 64
        .space 16
b:      add d2, d2, d0
        j c
        .align 64
        .space 16
c:      addi16 d0, -1
        jne d0, d9, a
        j d
        .align 64
        .space 16
d:      add d3, d3, d1
        halt
)", 14);
}

TEST(CacheLookup, SetOffsetsPastSixteenBitsAreMaterialized) {
  // 4,096 sets of 4-byte lines: `far`, 8,208 bytes in, is in set 2,052,
  // whose state starts 32,832 bytes into the cache state area, more than
  // one mvk immediate holds. Only the block image fits the branch range
  // here: the stepping image turns every padding nop into a unit.
  arch::ArchDescription desc = defaultArch();
  desc.icache.sets = 4096;
  desc.icache.line_bytes = 4;
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 2
        j far
        .space 8200
far:    addi16 d0, -1
        jnz16 d0, far
        halt
)");
  iss::Iss ref(desc, obj);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);
  TranslateOptions opts;
  opts.level = DetailLevel::kICache;
  const TranslationResult r = translate(desc, obj, opts);
  platform::EmulationPlatform plat(desc, r.image);
  const platform::RunResult run = plat.run();
  EXPECT_EQ(run.state, vliw::RunState::kHalted);
  EXPECT_EQ(run.generated_cycles, ref.stats().cycles);
  EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
}

// ---- static MRU-hit analysis ---------------------------------------------

TEST(MruAnalysis, ElidesExactlyTheProvenHits) {
  // 16-byte lines, 64 sets. Blocks and their lines:
  //   B0 [movi]                          line 0 (set 0)
  //   B1 [add, add, add | addi16, jnz16] lines 0 and 1 (sets 0, 1)
  //   B2 [halt]                          line 1
  // B1 is entered from B0 (set 0 holds line 0 as MRU, set 1 unknown) and
  // from itself (line 0 and line 1 MRU); the meet keeps line 0 only. So
  // B1's line-0 lookup is elided and its line-1 lookup stays. B2 is
  // entered only from B1: line 1 is MRU, elided. B0's lookup stays (every
  // set is unknown at the entry). 2 of 4 lookups are elided.
  const char* program = R"(
_start: movi d0, 10
loop:   add d1, d1, d0
        add d2, d2, d1
        add d3, d3, d2
        addi16 d0, -1
        jnz16 d0, loop
        halt
)";
  EndToEnd e = runBoth(program, DetailLevel::kICache);
  EXPECT_EQ(e.translation.stats.cabs, 4u);
  EXPECT_EQ(e.translation.stats.cab_lookups_elided, 2u);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

TEST(MruAnalysis, ReturnSitesTakeTheIndirectEdge) {
  // The loop line and both callee lines (1 KiB and 2 KiB past it) share
  // set 0 of the 2-way cache. A return site is reached only through
  // ret16, after which the callee's line is MRU: the return site's lookup
  // hits a line that is not MRU, and must stay. Treating a call as
  // falling through to its return site would elide it and leave the
  // translated LRU words, and so the later misses, wrong.
  EndToEnd e = runBoth(R"(
_start: movi d0, 20
loop:   jl f1
        jl f2
        addi16 d0, -1
        jnz16 d0, loop
        halt
        .align 1024
f1:     add d1, d1, d0
        ret16
        .align 1024
f2:     add d2, d2, d0
        ret16
)", DetailLevel::kICache);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

TEST(MruAnalysis, ComputedJumpsMeetIntoEveryBlock) {
  // `top` (line 1, set 1) has a static predecessor that leaves line 1 MRU,
  // and is also the target of `ji a3` at the end of `far`, whose line
  // (0x410 past _start) is in set 1 too. Arriving from `far`, top's line
  // hits but is not MRU, so top's lookup must stay. Eliding it leaves
  // set 1's LRU way wrong at the halt.
  EndToEnd e = runBoth(R"(
_start: movi d0, 3
        movha a3, hi(top)
        lea a3, a3, lo(top)
        nop
        j top
top:    addi16 d0, -1
        jz16 d0, done
        j far
done:   halt
        .align 1024
        .space 16
far:    nop
        ji a3
)", DetailLevel::kICache);
  EXPECT_EQ(e.run.generated_cycles, e.reference->stats().cycles);
  EXPECT_EQ(compareFinalState(e.desc, *e.reference, *e.plat, e.source), "");
}

TEST(Translate, FunctionalLevelHasNoSyncTraffic) {
  EndToEnd e = runBoth(kLoopProgram, DetailLevel::kFunctional);
  EXPECT_EQ(e.run.generated_cycles, 0u);
  EXPECT_EQ(e.plat->sync().numStarts(), 0u);
}

TEST(Translate, DetailLevelsIncreaseCost) {
  uint64_t prev = 0;
  for (const DetailLevel level : kDetailLevels) {
    EndToEnd e = runBoth(kLoopProgram, level);
    EXPECT_GE(e.run.vliw_cycles, prev)
        << "level " << detailLevelName(level);
    prev = e.run.vliw_cycles;
  }
}

TEST(Translate, StatsAreFilled) {
  const elf::Object obj = trc::assemble(kLoopProgram);
  TranslateOptions opts;
  opts.level = DetailLevel::kICache;
  const TranslationResult r = translate(defaultArch(), obj, opts);
  EXPECT_EQ(r.stats.blocks, 3u);
  EXPECT_GT(r.stats.cabs, 0u);
  EXPECT_GT(r.stats.machine_ops, 0u);
  EXPECT_GT(r.stats.code_bytes, 0u);
  EXPECT_EQ(r.stats.source_instructions, 7u);
  EXPECT_EQ(r.blocks.size(), 3u);
  for (const auto& [src, info] : r.blocks) {
    EXPECT_GT(info.static_cycles, 0u);
  }
}

TEST(Translate, RejectsWrongMachine) {
  elf::Object obj;
  obj.machine = elf::Machine::kV6x;
  EXPECT_THROW(translate(defaultArch(), obj), Error);
}

TEST(Translate, LongBlockRunsOnTheIssButRefusesAnnotation) {
  // One block of 40,002 instructions costs 120,010 static cycles, more
  // than a sync start's 16-bit count carries. The reference ISS and the
  // functional translation carry no annotation and run it; the levels
  // that annotate refuse it with a cabt::Error.
  std::string src = "_start: movi d1, 1\n";
  for (int i = 0; i < 40000; ++i) {
    src += "        mul d2, d1, d1\n";
  }
  src += "        halt\n";
  const elf::Object obj = trc::assemble(src);
  const arch::ArchDescription desc = defaultArch();
  for (const DetailLevel level : kDetailLevels) {
    SCOPED_TRACE(detailLevelName(level));
    iss::IssConfig cfg = platform::issConfigFor(level);
    iss::Iss threaded(desc, obj, nullptr, cfg);
    cfg.use_block_cache = false;
    iss::Iss stepping(desc, obj, nullptr, cfg);
    ASSERT_EQ(threaded.run(), iss::StopReason::kHalted);
    ASSERT_EQ(stepping.run(), iss::StopReason::kHalted);
    EXPECT_EQ(threaded.stats().instructions, 40002u);
    EXPECT_EQ(snap::firstMismatch(snap::observe(stepping),
                                  snap::observe(threaded)),
              "");
    if (level == DetailLevel::kICache) {
      EXPECT_EQ(threaded.stats().cycles, 120010u);
    }
    TranslateOptions opts;
    opts.level = level;
    if (level != DetailLevel::kFunctional) {
      EXPECT_THROW(translate(desc, obj, opts), Error);
      continue;
    }
    const TranslationResult r = translate(desc, obj, opts);
    platform::EmulationPlatform plat(desc, r.image);
    EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
    EXPECT_EQ(platform::compareFinalState(desc, threaded, plat, obj), "");
  }
}

TEST(Translate, InstructionOrientedYieldsPerInstruction) {
  const arch::ArchDescription desc = defaultArch();
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 7
        addi16 d1, 1
        halt
)");
  TranslateOptions opts;
  opts.level = DetailLevel::kStatic;
  opts.instruction_oriented = true;
  const TranslationResult r = translate(desc, obj, opts);
  EXPECT_EQ(r.instr_map.size(), 3u);

  platform::EmulationPlatform plat(desc, r.image);
  // First yield: before movi executes.
  EXPECT_EQ(plat.sim().run(100000), vliw::RunState::kYielded);
  EXPECT_EQ(plat.srcD(1), 0u);
  // Second yield: movi done.
  EXPECT_EQ(plat.sim().run(100000), vliw::RunState::kYielded);
  EXPECT_EQ(plat.srcD(1), 7u);
  // Third yield: addi16 done.
  EXPECT_EQ(plat.sim().run(100000), vliw::RunState::kYielded);
  EXPECT_EQ(plat.srcD(1), 8u);
  EXPECT_EQ(plat.sim().run(100000), vliw::RunState::kHalted);
}

}  // namespace
}  // namespace cabt::xlat
