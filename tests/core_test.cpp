// Shared block-graph layer tests.
//
// The central property: core::BlockGraph (the single source of block
// boundaries and of every static block fact for both the ISS and the
// translator) produces exactly the block partition, static cycles,
// issue schedules and cache analysis blocks of an oracle re-implemented
// here from first principles (decode + leaders + pipeline timer + the
// fetch-line rule in plain arithmetic), checked against the graph on
// every paper workload. The block cache is checked against ISS
// execution.
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
    const BlockGraph graph = BlockGraph::build(desc, obj);
    const std::vector<OracleBlock> oracle = oracleBlocks(obj);

    ASSERT_EQ(graph.blocks().size(), oracle.size());
    uint64_t graph_sum = 0;
    uint64_t oracle_sum = 0;
    for (size_t i = 0; i < oracle.size(); ++i) {
      const Block& b = graph.blocks()[i];
      EXPECT_EQ(b.addr, oracle[i].addr);
      ASSERT_EQ(b.count, oracle[i].instrs.size());
      for (size_t k = 0; k < oracle[i].instrs.size(); ++k) {
        EXPECT_EQ(graph.instrs(b)[k].addr, oracle[i].instrs[k].addr);
        EXPECT_EQ(graph.instrs(b)[k].opc, oracle[i].instrs[k].opc);
      }
      EXPECT_EQ(b.static_cycles, oracleStaticCycles(desc, oracle[i].instrs));
      graph_sum += b.static_cycles;
      oracle_sum += oracleStaticCycles(desc, oracle[i].instrs);
    }
    EXPECT_EQ(graph_sum, oracle_sum);
  }
}

/// The issue schedule from first principles: cycles after each
/// instruction, issued one by one from a drained pipeline.
std::vector<uint32_t> oracleSchedule(const arch::ArchDescription& desc,
                                     const std::vector<trc::Instr>& instrs) {
  arch::PipelineTimer timer(desc.pipeline);
  std::vector<uint32_t> out;
  for (const trc::Instr& instr : instrs) {
    timer.issue(instr.timedOp());
    out.push_back(static_cast<uint32_t>(timer.cycles()));
  }
  return out;
}

/// The fetch-line rule (DESIGN.md section 2.3) in plain arithmetic: an
/// instruction touches the line of its first byte, and a block makes one
/// access per run of consecutive instructions in one line.
std::vector<CacheAnalysisBlock> oracleCabs(const arch::ICacheModel& icache,
                                           const std::vector<trc::Instr>& b) {
  std::vector<CacheAnalysisBlock> out;
  for (uint32_t k = 0; k < b.size(); ++k) {
    const uint32_t line = b[k].addr / icache.line_bytes;
    if (k > 0 && b[k - 1].addr / icache.line_bytes == line) {
      continue;
    }
    out.push_back({k, line % icache.sets, ((line / icache.sets) << 1) | 1});
  }
  return out;
}

TEST(BlockGraph, ScheduleAndCabsMatchFirstPrinciples) {
  arch::ArchDescription no_icache = defaultArch();
  no_icache.icache.enabled = false;
  arch::ArchDescription small_lines = defaultArch();
  small_lines.icache.line_bytes = 8;
  small_lines.icache.sets = 16;
  for (const arch::ArchDescription& desc :
       {defaultArch(), small_lines, no_icache}) {
    for (const workloads::Workload& w : workloads::all()) {
      SCOPED_TRACE(w.name + " with " +
                   std::to_string(desc.icache.line_bytes) + "-byte lines" +
                   (desc.icache.enabled ? "" : ", no icache"));
      const elf::Object obj = workloads::assemble(w);
      const BlockGraph graph = BlockGraph::build(desc, obj);
      const std::vector<OracleBlock> oracle = oracleBlocks(obj);
      ASSERT_EQ(graph.blocks().size(), oracle.size());
      size_t cabs = 0;
      for (size_t i = 0; i < oracle.size(); ++i) {
        const Block& b = graph.blocks()[i];
        const std::span<const uint32_t> schedule = graph.schedule(b);
        EXPECT_EQ(std::vector<uint32_t>(schedule.begin(), schedule.end()),
                  oracleSchedule(desc, oracle[i].instrs));
        const std::vector<CacheAnalysisBlock> want =
            desc.icache.enabled ? oracleCabs(desc.icache, oracle[i].instrs)
                                : std::vector<CacheAnalysisBlock>{};
        const std::span<const CacheAnalysisBlock> got = graph.cabs(b);
        ASSERT_EQ(got.size(), want.size()) << "block " << i;
        for (size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(got[k].start, want[k].start);
          EXPECT_EQ(got[k].set, want[k].set);
          EXPECT_EQ(got[k].tag_word, want[k].tag_word);
        }
        cabs += got.size();
      }
      EXPECT_EQ(cabs > 0, desc.icache.enabled);
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
  const BlockGraph graph = BlockGraph::build(defaultArch(), obj);
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
    const BlockGraph graph = BlockGraph::build(defaultArch(), obj);
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

/// A binder whose handlers are never run: these tests only inspect the
/// lowered programs' shape.
const ThreadedOp* noHandler(void*, const ThreadedOp*) { return nullptr; }
ThreadedFn selectNoHandler(const trc::Instr&, bool) { return &noHandler; }
const ThreadedBinder kShapeBinder{&selectNoHandler, &noHandler, false};

TEST(Traces, FormsDominantChain) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 100
loop:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  BlockCache cache(makeArtifact(defaultArch(), obj));
  // Blocks: _start | loop | halt. Seed the loop's observed outcomes so
  // the backedge dominates 4:1.
  cache.blocks()[1].taken_count = 99;
  cache.blocks()[1].ft_count = 1;
  const int32_t t = cache.formTrace(1, kShapeBinder);
  ASSERT_GE(t, 0);
  const ThreadedProgram& tr = cache.threaded(t);
  // The hot loop unrolls into kTraceMaxBlocks copies of itself, guarded
  // by its own entry address at every internal boundary; each segment
  // is the loop's three ops (its jnz16 ends it, no terminator).
  ASSERT_EQ(tr.segs.size(), kTraceMaxBlocks);
  const ExecBlock& loop = cache.blocks()[1];
  EXPECT_EQ(tr.addr, loop.addr());
  EXPECT_EQ(tr.total_instrs, kTraceMaxBlocks * loop.size());
  EXPECT_EQ(tr.ops.size(), kTraceMaxBlocks * loop.size());
  for (size_t s = 0; s < tr.segs.size(); ++s) {
    EXPECT_EQ(tr.segs[s].block, 1);
    EXPECT_EQ(tr.segs[s].first, s * loop.size());
    EXPECT_EQ(tr.segs[s].entry_addr, loop.addr());
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
  {
    // Balanced outcomes: no dominant successor, nothing to splice. The
    // refusal is transient (kTraceUnformed), so the dispatcher retries.
    BlockCache cache(makeArtifact(defaultArch(), obj));
    cache.blocks()[1].taken_count = 50;
    cache.blocks()[1].ft_count = 50;
    EXPECT_EQ(cache.formTrace(1, kShapeBinder), kTraceUnformed);
  }
  {
    // From the halt block (no successor at all) the trace is a single
    // block and is refused outright.
    BlockCache cache(makeArtifact(defaultArch(), obj));
    EXPECT_EQ(cache.formTrace(2, kShapeBinder), kTraceUnformed);
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
