// Targeted tests of the threaded engine's two tiers (lowered blocks and
// traces) against the step() reference: successor chaining, superblock
// formation and guarded dispatch, guard-failure bails, threaded lowering
// and trace budget declines, indirect jumps into trace interiors and
// block middles, instruction-limit stops inside hot traces, quantum
// slicing, and the retry of a declined trace formation. The broad
// equivalence sweep lives in random_program_test.cpp; these are the
// corner cases with a known shape.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "iss/iss.h"
#include "snap/observe.h"
#include "trc/assembler.h"

namespace cabt {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

iss::IssConfig steppingConfig() {
  iss::IssConfig cfg;
  cfg.use_block_cache = false;
  return cfg;
}

/// The threaded engine with an aggressive trace tier: traces form after
/// two dispatches, so even short programs run mostly as superblocks of
/// host handler arrays.
iss::IssConfig threadedConfig() {
  iss::IssConfig cfg;
  cfg.trace_threshold = 2;
  return cfg;
}

// A hot nested loop: the inner block re-enters itself 20 times per outer
// iteration, so a low-threshold trace engine unrolls it into a
// superblock whose guards fail exactly once per inner-loop exit.
const char* kNestedLoops = R"(
_start: movi d5, 10
        movi d1, 0
outer:  movi d0, 20
inner:  add d1, d1, d0
        xor d2, d1, d5
        addi16 d0, -1
        jnz16 d0, inner
        addi16 d5, -1
        jnz16 d5, outer
        movi d3, 99
        halt
)";

/// Engine equivalence on a finished pair of cores: "" when `got` matches
/// the reference `want` in every architectural field.
std::string mismatch(const iss::Iss& want, const iss::Iss& got) {
  return snap::firstMismatch(snap::observe(want), snap::observe(got));
}

TEST(ChainedDispatch, ChainsSuccessorsWithoutLookups) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  // Traces out of reach: the whole run dispatches single lowered blocks.
  iss::IssConfig cfg;
  cfg.trace_threshold = UINT32_MAX;
  iss::Iss iss(defaultArch(), obj, nullptr, cfg);
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  // 10 outer x 20 inner iterations: nearly every dispatch resolves
  // through a chained edge.
  EXPECT_GT(iss.stats().chain_hits, 200u);
  EXPECT_EQ(iss.stats().trace_dispatches, 0u);
  // Every cached dispatch, the first included, ran threaded code.
  EXPECT_EQ(iss.stats().threaded_dispatches, iss.stats().cached_blocks);
  EXPECT_EQ(iss.stats().cached_blocks, iss.stats().blocks);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, iss), "");
}

TEST(TraceDispatch, FormsHotTracesAndStaysExact) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss iss(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  EXPECT_GT(iss.stats().trace_dispatches, 0u);
  EXPECT_GT(iss.stats().trace_blocks, iss.stats().trace_dispatches);
  // Every inner-loop exit leaves the unrolled trace through a failing
  // guard (the backedge finally falls through).
  EXPECT_GT(iss.stats().guard_bails, 0u);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, iss), "");

  // Hot-block accounting attributes the inner block's dispatches to
  // trace execution.
  const auto hot = iss.hotBlocks(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].exec_count, 200u);
  EXPECT_GT(hot[0].trace_execs, 0u);
}

TEST(TraceDispatch, NearBalancedBranchesDoNotSpliceButStayExact) {
  // The branch alternates taken/not-taken, so neither outcome ever
  // dominates 4:1 and the trace must not speculate through it; the run
  // still has to be bit-exact whatever the builder decides.
  const char* kAlternating = R"(
_start: movi d0, 200
        movi d1, 0
        movi d2, 0
loop:   xor d1, d1, d0
        and d3, d1, d0
        jnz16 d3, skip
        addi16 d2, 1
skip:   addi16 d0, -1
        jnz16 d0, loop
        halt
)";
  const elf::Object obj = trc::assemble(kAlternating);
  iss::Iss iss(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, iss), "");
}

TEST(TraceDispatch, IndirectJumpIntoTraceInteriorLeader) {
  // After the loop gets hot (trace formed over [body, body, ...]), an
  // indirect jump re-enters the loop body — an interior trace segment —
  // through the plain lookup path.
  const char* kProgram = R"(
_start: movi d5, 3
again:  movi d0, 30
body:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, body
        addi16 d5, -1
        jz16 d5, done
        movha a2, hi(body)
        lea a2, a2, lo(body)
        movi d0, 15
        ji a2
done:   halt
)";
  const elf::Object obj = trc::assemble(kProgram);
  iss::Iss iss(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  EXPECT_GT(iss.stats().trace_dispatches, 0u);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, iss), "");
}

TEST(TraceDispatch, DeclinedFormationRetriesOnceBranchesSkew) {
  // The loop's branch alternates while d5 >= 380 and then always falls
  // through. Formation at the trace threshold is declined on the
  // balanced warm-up statistics; a decline must not be permanent: the
  // geometric-backoff retry forms the trace once the fall-through
  // dominates. Both successors end in indirect jumps, so no other block
  // can head a trace. The program never halts; the instruction limit
  // ends it, before the retry (200) and well after it (2,000).
  const char* kProgram = R"(
_start: movi d5, 401
        movi d7, 1
        movi d10, 380
        movha a2, hi(loop)
        lea a2, a2, lo(loop)
        j loop
loop:   addi16 d5, -1
        ge d11, d5, d10
        and d8, d5, d7
        and d8, d8, d11
        jnz16 d8, odd
even:   ji a2
odd:    ji a2
)";
  const elf::Object obj = trc::assemble(kProgram);
  for (const uint64_t limit : {200u, 2000u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    iss::IssConfig fast_cfg = threadedConfig();
    fast_cfg.max_instructions = limit;
    iss::Iss fast(defaultArch(), obj, nullptr, fast_cfg);
    ASSERT_EQ(fast.run(), iss::StopReason::kMaxInstructions);
    if (limit == 200) {
      EXPECT_EQ(fast.stats().trace_dispatches, 0u);
    } else {
      EXPECT_GT(fast.stats().trace_dispatches, 0u);
    }
    iss::IssConfig slow_cfg = steppingConfig();
    slow_cfg.max_instructions = limit;
    iss::Iss slow(defaultArch(), obj, nullptr, slow_cfg);
    ASSERT_EQ(slow.run(), iss::StopReason::kMaxInstructions);
    EXPECT_EQ(mismatch(slow, fast), "");
  }
}

// ---- threaded-code backend corner cases ------------------------------

TEST(ThreadedDispatch, LowersHotBlocksAndTracesAndStaysExact) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(fast.run(), iss::StopReason::kHalted);
  // The hot loop really ran through lowered programs — both the block
  // and trace flavours — not the interpreted fallback.
  EXPECT_GT(fast.stats().threaded_lowerings, 0u);
  EXPECT_GT(fast.stats().threaded_dispatches, 0u);
  EXPECT_GT(fast.stats().trace_dispatches, 0u);
  EXPECT_GT(fast.stats().threaded_instrs, fast.stats().instructions / 2);
  EXPECT_EQ(fast.stats().threaded_declined, 0u);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, fast), "");
}

TEST(ThreadedDispatch, QuantumSliceExpiryMidProgramYieldsExactly) {
  // runUntil limits fall between the original block boundaries inside
  // lowered trace programs: the threaded dispatcher must yield at the
  // identical boundary, with the identical local time and pc, as the
  // stepping engine.
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  std::vector<std::pair<uint64_t, uint32_t>> fast_yields;
  std::vector<std::pair<uint64_t, uint32_t>> slow_yields;
  for (uint64_t t = 25;; t += 25) {
    const iss::StopReason r = fast.runUntil(t);
    if (r != iss::StopReason::kCycleLimit) {
      ASSERT_EQ(r, iss::StopReason::kHalted);
      break;
    }
    fast_yields.push_back({fast.localTime(), fast.pc()});
  }
  for (uint64_t t = 25;; t += 25) {
    const iss::StopReason r = slow.runUntil(t);
    if (r != iss::StopReason::kCycleLimit) {
      ASSERT_EQ(r, iss::StopReason::kHalted);
      break;
    }
    slow_yields.push_back({slow.localTime(), slow.pc()});
  }
  EXPECT_GT(fast.stats().threaded_dispatches, 0u);
  EXPECT_EQ(fast_yields, slow_yields);
  EXPECT_EQ(mismatch(slow, fast), "");
}

TEST(ThreadedDispatch, InstructionLimitTruncatesExactly) {
  // The admission check refuses whole lowered programs that would
  // overshoot max_instructions, stepping the remainder — the stop lands
  // on the precise instruction for every limit.
  const elf::Object obj = trc::assemble(kNestedLoops);
  for (const uint64_t limit : {57u, 100u, 333u, 801u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    iss::IssConfig fast_cfg = threadedConfig();
    fast_cfg.max_instructions = limit;
    iss::Iss fast(defaultArch(), obj, nullptr, fast_cfg);
    EXPECT_EQ(fast.run(), iss::StopReason::kMaxInstructions);
    iss::IssConfig slow_cfg = steppingConfig();
    slow_cfg.max_instructions = limit;
    iss::Iss slow(defaultArch(), obj, nullptr, slow_cfg);
    EXPECT_EQ(slow.run(), iss::StopReason::kMaxInstructions);
    EXPECT_EQ(fast.stats().instructions, limit);
    EXPECT_EQ(mismatch(slow, fast), "");
  }
}

TEST(ThreadedDispatch, IndirectJumpLeavesLoweredRegionExactly) {
  // An indirect jump lands in the middle of a block whose region is
  // already lowered (and part of a hot trace): the landing is not a
  // leader, so per-instruction semantics keep the open block across the
  // jump and the dispatcher must re-warm the stepping engine mid-block —
  // with the pipeline timer and icache line tracking replayed — before
  // threaded dispatch resumes at the next leader.
  const char* kProgram = R"(
_start: movi d5, 3
again:  movi d0, 30
body:   add d1, d1, d0
mid:    xor d2, d1, d5
        addi16 d0, -1
        jnz16 d0, body
        addi16 d5, -1
        jz16 d5, done
        movha a2, hi(mid)
        lea a2, a2, lo(mid)
        movi d0, 1
        ji a2
done:   halt
)";
  const elf::Object obj = trc::assemble(kProgram);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(fast.run(), iss::StopReason::kHalted);
  EXPECT_GT(fast.stats().threaded_dispatches, 0u);
  EXPECT_GT(fast.stats().trace_dispatches, 0u);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, fast), "");
}

TEST(ThreadedDispatch, LoweringDeclinesRunBlockByBlockExactly) {
  // A hot loop body of 700 straight-line chunks (~70k instructions, past
  // the per-core trace budget of 65,536 ops), each chunk its own block
  // ending in a jump to the next. Traces form over chunk pairs; once the
  // budget is spent, further trace lowerings are declined and those
  // chunks run their own lowered blocks, block by block.
  std::string src = "_start: movi d7, 6\nloop:\n";
  for (int c = 0; c < 700; ++c) {
    for (int i = 0; i < 33; ++i) {
      src += "        add d1, d1, d0\n        addi16 d0, 1\n"
             "        xor d2, d2, d1\n";
    }
    src += "        j c" + std::to_string(c) + "\nc" + std::to_string(c) +
           ":\n";
  }
  src += "        addi16 d7, -1\n        jz16 d7, done\n        j loop\n"
         "done:   halt\n";
  const elf::Object obj = trc::assemble(src);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(fast.run(), iss::StopReason::kHalted);
  EXPECT_GT(fast.stats().threaded_lowerings, 0u);
  EXPECT_GT(fast.stats().threaded_declined, 0u);
  EXPECT_GT(fast.stats().trace_dispatches, 0u);
  // The declined chunks still retired inside threaded code: blocks lower
  // without drawing on the trace budget.
  EXPECT_EQ(fast.stats().threaded_instrs, fast.stats().instructions);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  EXPECT_EQ(mismatch(slow, fast), "");
}

}  // namespace
}  // namespace cabt
