// Shared block-graph layer tests.
//
// The central property: core::BlockGraph (now the single source of block
// boundaries for both the ISS and the translator) produces exactly the
// block partition and static cycle sums of the pre-refactor
// xlat::buildBlocks / computeStaticCycles pair, which is re-implemented
// here from first principles (decode + leaders + pipeline timer) and
// checked against the graph on every paper workload. The predecoded
// block cache is checked against the translator's cache-analysis blocks
// and against ISS execution.
#include <gtest/gtest.h>

#include "arch/timing.h"
#include "common/strutil.h"
#include "core/block_cache.h"
#include "core/program_artifact.h"
#include "core/block_graph.h"
#include "iss/iss.h"
#include "snap/observe.h"
#include "trc/assembler.h"
#include "trc/program.h"
#include "workloads/workloads.h"
#include "xlat/internal.h"

namespace cabt::core {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

/// Builds a private (uncached) artifact — unit tests exercise the
/// overlay mechanics, fleet_test covers the shared-cache path.
std::shared_ptr<const ProgramArtifact> makeArtifact(
    const arch::ArchDescription& desc, const elf::Object& obj) {
  return std::make_shared<const ProgramArtifact>(
      desc, obj, std::vector<uint32_t>{});
}

/// The pre-refactor block construction (the loop formerly in
/// xlat/blocks.cpp), kept as an independent oracle.
struct OracleBlock {
  uint32_t addr = 0;
  std::vector<trc::Instr> instrs;
};

std::vector<OracleBlock> oracleBlocks(const elf::Object& object) {
  const std::vector<trc::Instr> instrs = trc::decodeText(object);
  const std::set<uint32_t> leaders = trc::findLeaders(object, instrs);
  std::vector<OracleBlock> blocks;
  for (const trc::Instr& instr : instrs) {
    if (blocks.empty() || leaders.count(instr.addr) != 0) {
      blocks.push_back({instr.addr, {}});
    }
    blocks.back().instrs.push_back(instr);
  }
  return blocks;
}

/// The pre-refactor static cycle calculation (pipeline schedule plus the
/// static part of the branch cost).
uint32_t oracleStaticCycles(const arch::ArchDescription& desc,
                            const std::vector<trc::Instr>& instrs) {
  arch::PipelineTimer timer(desc.pipeline);
  for (const trc::Instr& instr : instrs) {
    timer.issue(instr.timedOp());
  }
  uint64_t cycles = timer.cycles();
  const trc::Instr& last = instrs.back();
  if (last.isControlTransfer() &&
      last.cls() != arch::OpClass::kBranchCond) {
    cycles += desc.branch.unconditionalExtra(last.cls());
  }
  return static_cast<uint32_t>(cycles);
}

TEST(BlockGraph, MatchesPreRefactorBlocksOnAllWorkloads) {
  const arch::ArchDescription desc = defaultArch();
  for (const workloads::Workload& w : workloads::all()) {
    SCOPED_TRACE(w.name);
    const elf::Object obj = workloads::assemble(w);
    BlockGraph graph = BlockGraph::build(obj);
    graph.computeStaticCycles(desc);
    const std::vector<OracleBlock> oracle = oracleBlocks(obj);

    ASSERT_EQ(graph.blocks().size(), oracle.size());
    uint64_t graph_sum = 0;
    uint64_t oracle_sum = 0;
    for (size_t i = 0; i < oracle.size(); ++i) {
      const Block& b = graph.blocks()[i];
      EXPECT_EQ(b.addr, oracle[i].addr);
      ASSERT_EQ(b.count, oracle[i].instrs.size());
      for (size_t k = 0; k < oracle[i].instrs.size(); ++k) {
        EXPECT_EQ(graph.begin(b)[k].addr, oracle[i].instrs[k].addr);
        EXPECT_EQ(graph.begin(b)[k].opc, oracle[i].instrs[k].opc);
      }
      EXPECT_EQ(b.static_cycles, oracleStaticCycles(desc, oracle[i].instrs));
      graph_sum += b.static_cycles;
      oracle_sum += oracleStaticCycles(desc, oracle[i].instrs);
    }
    EXPECT_EQ(graph_sum, oracle_sum);
  }
}

TEST(BlockGraph, TranslatorSourceBlocksComeFromTheGraph) {
  for (const workloads::Workload& w : workloads::all()) {
    SCOPED_TRACE(w.name);
    const elf::Object obj = workloads::assemble(w);
    const BlockGraph graph = BlockGraph::build(obj);
    const std::vector<xlat::SourceBlock> sb = xlat::buildBlocks(obj);
    ASSERT_EQ(sb.size(), graph.blocks().size());
    for (size_t i = 0; i < sb.size(); ++i) {
      EXPECT_EQ(sb[i].addr, graph.blocks()[i].addr);
      EXPECT_EQ(sb[i].instrs.size(), graph.blocks()[i].count);
    }
  }
}

TEST(BlockGraph, SuccessorEdges) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 3
loop:   addi16 d0, -1
        jnz16 d0, loop
        j done
        nop             ; unreachable, its own block
done:   jl fn
        halt
fn:     ret16
)");
  const BlockGraph graph = BlockGraph::build(obj);
  // Blocks: _start | loop..jnz16 | j done | nop | done: jl | halt | fn.
  ASSERT_EQ(graph.blocks().size(), 7u);
  const std::vector<Block>& b = graph.blocks();
  EXPECT_EQ(b[0].fall_through, 1);  // straight into the loop
  EXPECT_EQ(b[0].target, -1);
  EXPECT_EQ(b[1].target, 1);        // back edge
  EXPECT_EQ(b[1].fall_through, 2);
  EXPECT_EQ(b[2].target, 4);        // j done
  EXPECT_EQ(b[2].fall_through, -1);
  EXPECT_EQ(b[4].target, 6);        // call fn
  EXPECT_EQ(b[4].fall_through, -1);
  EXPECT_EQ(b[6].target, -1);       // indirect return: dynamic
  EXPECT_EQ(b[6].fall_through, -1);
  EXPECT_EQ(graph.indexAt(b[4].addr), 4);
  EXPECT_EQ(graph.blockAt(0xdeadbeef), nullptr);
}

TEST(BlockGraph, LeaderBitmapMatchesLeaderSet) {
  for (const workloads::Workload& w : workloads::all()) {
    SCOPED_TRACE(w.name);
    const elf::Object obj = workloads::assemble(w);
    const BlockGraph graph = BlockGraph::build(obj);
    // Every 2-byte slot of .text answers exactly like the ordered set;
    // addresses outside .text answer false.
    const uint32_t first = graph.instrs().front().addr;
    const trc::Instr& last = graph.instrs().back();
    for (uint32_t a = first; a < last.addr + last.size; a += 2) {
      EXPECT_EQ(graph.isLeaderFast(a), graph.leaders().count(a) != 0)
          << hex32(a);
    }
    EXPECT_FALSE(graph.isLeaderFast(first - 2));
    EXPECT_FALSE(graph.isLeaderFast(last.addr + last.size));
    EXPECT_FALSE(graph.isLeaderFast(0));
    EXPECT_FALSE(graph.isLeaderFast(0xffffffffu));
  }
}

TEST(Traces, FormsDominantChain) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 100
loop:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  const BlockGraph graph = BlockGraph::build(obj);
  BlockCache cache(makeArtifact(desc, obj));
  // Blocks: _start | loop | halt. Seed the loop's observed outcomes so
  // the backedge dominates 4:1.
  const int32_t loop_idx = graph.indexAt(graph.blocks()[1].addr);
  ASSERT_EQ(loop_idx, 1);
  cache.blocks()[1].taken_count = 99;
  cache.blocks()[1].ft_count = 1;
  const int32_t t = cache.formTrace(1);
  ASSERT_GE(t, 0);
  const Trace& tr = cache.traces()[static_cast<size_t>(t)];
  // The hot loop unrolls into kTraceMaxBlocks copies of itself, guarded
  // by its own entry address at every internal boundary.
  ASSERT_EQ(tr.segs.size(), kTraceMaxBlocks);
  const ExecBlock& loop = cache.blocks()[1];
  EXPECT_EQ(tr.addr, loop.addr());
  EXPECT_EQ(tr.total_instrs, kTraceMaxBlocks * loop.instrs().size());
  for (const TraceSegment& seg : tr.segs) {
    EXPECT_EQ(seg.block, 1);
    EXPECT_EQ(seg.entry_addr, loop.addr());
  }
}

TEST(Traces, DeclinesAmbiguousAndSingleBlockChains) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 100
loop:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  const BlockGraph graph = BlockGraph::build(obj);
  {
    // Balanced outcomes: no dominant successor, nothing to splice.
    BlockCache cache(makeArtifact(defaultArch(), obj));
    cache.blocks()[1].taken_count = 50;
    cache.blocks()[1].ft_count = 50;
    EXPECT_EQ(cache.formTrace(1), kTraceDeclined);
  }
  {
    // From the halt block (no successor at all) the trace is a single
    // block and is declined outright.
    BlockCache cache(makeArtifact(defaultArch(), obj));
    EXPECT_EQ(cache.formTrace(2), kTraceDeclined);
  }
}

TEST(BlockCache, LineGroupsMatchCacheAnalysisBlocks) {
  const arch::ArchDescription desc = defaultArch();
  for (const workloads::Workload& w : workloads::all()) {
    SCOPED_TRACE(w.name);
    const elf::Object obj = workloads::assemble(w);
    const BlockGraph graph = BlockGraph::build(obj);
    const BlockCache cache(makeArtifact(desc, obj));
    std::vector<xlat::SourceBlock> sb = xlat::buildBlocks(graph);
    xlat::computeCacheAnalysisBlocks(desc.icache, sb);
    ASSERT_EQ(cache.blocks().size(), sb.size());
    for (size_t i = 0; i < sb.size(); ++i) {
      const StaticBlock& st = *cache.blocks()[i].stat;
      std::vector<size_t> starts;
      for (size_t k = 0; k < st.new_line.size(); ++k) {
        if (st.new_line[k] != 0) {
          starts.push_back(k);
        }
      }
      EXPECT_EQ(starts, sb[i].cab_starts);
    }
  }
}

TEST(BlockCache, CumulativeCyclesEndAtStaticSchedule) {
  const arch::ArchDescription desc = defaultArch();
  for (const workloads::Workload& w : workloads::all()) {
    const elf::Object obj = workloads::assemble(w);
    BlockGraph graph = BlockGraph::build(obj);
    graph.computeStaticCycles(desc);
    const BlockCache cache(makeArtifact(desc, obj));
    for (size_t i = 0; i < cache.blocks().size(); ++i) {
      const StaticBlock& st = *cache.blocks()[i].stat;
      const Block& b = graph.blocks()[i];
      ASSERT_FALSE(st.cum_cycles.empty());
      // static_cycles = schedule + static branch extra >= schedule.
      const uint32_t schedule = st.cum_cycles.back();
      EXPECT_LE(schedule, b.static_cycles);
      const trc::Instr& last = graph.last(b);
      const uint32_t extra =
          last.isControlTransfer() &&
                  last.cls() != arch::OpClass::kBranchCond
              ? desc.branch.unconditionalExtra(last.cls())
              : 0;
      EXPECT_EQ(schedule + extra, b.static_cycles);
      // The cumulative schedule is monotone.
      for (size_t k = 1; k < st.cum_cycles.size(); ++k) {
        EXPECT_LE(st.cum_cycles[k - 1], st.cum_cycles[k]);
      }
    }
  }
}

TEST(BlockCache, HotCountsTrackExecution) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 25
loop:   addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  iss::Iss iss(defaultArch(), obj);
  EXPECT_EQ(iss.run(), iss::StopReason::kHalted);
  const std::vector<iss::HotBlock> hot = iss.hotBlocks(2);
  ASSERT_GE(hot.size(), 1u);
  // The loop body dominates: dispatched 25 times.
  EXPECT_EQ(hot[0].exec_count, 25u);
  EXPECT_EQ(hot[0].instr_count, 2u);
  EXPECT_EQ(iss.stats().cached_blocks, iss.stats().blocks);
}

// ---- engine equivalence on targeted corner cases -------------------------

snap::CoreObservation runCore(const elf::Object& obj, bool block_cache,
                              bool timing = true) {
  iss::IssConfig cfg;
  cfg.use_block_cache = block_cache;
  cfg.model_timing = timing;
  iss::Iss iss(defaultArch(), obj, nullptr, cfg);
  iss.run();
  return snap::observe(iss);
}

TEST(EngineEquivalence, IndirectJumpIntoTheMiddleOfABlock) {
  // `target` is not a leader (it only follows a plain movi), so the
  // indirect jump lands mid-block and the block engine must fall back to
  // stepping with a warm pipeline, exactly like per-instruction mode.
  const elf::Object obj = trc::assemble(R"(
_start: movha a1, hi(target)
        lea a1, a1, lo(target)
        ji a1
        movi d9, 111
target: movi d9, 222
        add d8, d9, d9
        halt
)");
  EXPECT_EQ(snap::firstMismatch(runCore(obj, false), runCore(obj, true)), "");
}

TEST(EngineEquivalence, HaltFollowedByDeadCode) {
  // The instruction after a halt starts a new block that never runs; both
  // engines must stop at the halt with the same state.
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 1
        movi d2, 2
        halt
        movi d3, 3
        add d4, d1, d2
)");
  EXPECT_EQ(snap::firstMismatch(runCore(obj, false), runCore(obj, true)), "");
}

TEST(EngineEquivalence, BkptStopsPastItself) {
  // BKPT stops the core with the pc past itself on both engines, whether
  // it sits mid-block or ends its block (`next` is a branch target, so
  // the BKPT before it is the last instruction of the entry block).
  struct Case {
    const char* name;
    const char* source;
    uint32_t past_bkpt;
  };
  const Case cases[] = {
      {"mid-block", R"(
_start: movi d1, 1
        bkpt
        movi d1, 2
        halt
)",
       0x80000008},
      {"block end", R"(
_start: movi d1, 1
        movi d0, 0
        bkpt
next:   movi d1, 2
        jnz16 d0, next
        halt
)",
       0x8000000c},
  };
  for (const Case& c : cases) {
    const elf::Object obj = trc::assemble(c.source);
    for (const bool timing : {true, false}) {
      SCOPED_TRACE(std::string(c.name) + (timing ? ", timing" : ""));
      const snap::CoreObservation slow = runCore(obj, false, timing);
      EXPECT_EQ(slow.stop, iss::StopReason::kBreakpoint);
      EXPECT_EQ(slow.pc, c.past_bkpt);
      EXPECT_EQ(slow.d[1], 1u);
      EXPECT_EQ(snap::firstMismatch(slow, runCore(obj, true, timing)), "");
    }
  }
}

TEST(EngineEquivalence, InstructionLimitStopsInsideABlock) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 1000
loop:   addi16 d0, -1
        add d1, d1, d0
        sub d2, d1, d0
        jnz16 d0, loop
        halt
)");
  for (const uint64_t limit : {1ull, 2ull, 3ull, 7ull, 50ull}) {
    SCOPED_TRACE(limit);
    iss::IssConfig fast_cfg;
    fast_cfg.max_instructions = limit;
    iss::IssConfig slow_cfg = fast_cfg;
    slow_cfg.use_block_cache = false;
    iss::Iss fast(defaultArch(), obj, nullptr, fast_cfg);
    iss::Iss slow(defaultArch(), obj, nullptr, slow_cfg);
    EXPECT_EQ(fast.run(), iss::StopReason::kMaxInstructions);
    EXPECT_EQ(slow.run(), iss::StopReason::kMaxInstructions);
    EXPECT_EQ(snap::firstMismatch(snap::observe(slow), snap::observe(fast)),
              "");
  }
}

TEST(EngineEquivalence, FunctionalModeMatches) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 12
loop:   addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  const snap::CoreObservation fast = runCore(obj, true, /*timing=*/false);
  const snap::CoreObservation slow = runCore(obj, false, /*timing=*/false);
  EXPECT_EQ(snap::firstMismatch(slow, fast), "");
  EXPECT_EQ(fast.stats.cycles, 0u);
  EXPECT_EQ(fast.stats.blocks, 0u);
}

}  // namespace
}  // namespace cabt::core
