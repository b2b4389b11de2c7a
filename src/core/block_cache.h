// Predecoded block cache: the execution-oriented view of a BlockGraph.
//
// The ISS hot loop executes whole cached blocks instead of re-fetching,
// re-classifying and re-scheduling every instruction on every execution
// (the paper's premise: decode and schedule once, at block granularity).
// Since the fleet refactor the precomputed tables live in an immutable
// shared ProgramArtifact (program_artifact.h): per block the artifact
// holds
//   * a contiguous copy of the decoded instructions (no per-step address
//     hash lookups, no leader-set probes),
//   * the cumulative issue-schedule cycles after every instruction, from
//     a drained pipeline (the TRC32 pipeline drains at block boundaries,
//     so the schedule is a pure function of the block), and
//   * the cache-line group starts (the icache fetch rule touches one line
//     per distinct consecutive line within a block; the groups follow
//     from the static instruction addresses).
// The BlockCache is now the *per-core overlay* over that artifact: hot
// counters, formed traces and lowered threaded-code programs (each block lowered at its first dispatch, each trace on
// formation) — everything dispatch mutates — stays private per core, while
// N cores across M boards running the same image point at one shared
// artifact that is never written after publication. Dynamic state —
// register values, icache tags/LRU, branch outcomes — stays in the ISS;
// the per-block corrections are applied at block boundaries exactly as
// in per-instruction execution, which is why the engines are
// bit-identical (see DESIGN.md, "Block-cached execution").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/arch.h"
#include "core/block_graph.h"
#include "core/program_artifact.h"
#include "core/threaded.h"

namespace cabt::core {

/// ExecBlock::trace value while no trace exists; formTrace() returns
/// kTraceDeclined when it refuses to splice (cold or ambiguous
/// successors, indirect terminator). A decline is not permanent: the
/// dispatcher re-attempts with geometric backoff
/// (ExecBlock::trace_retry_at), since the refusal may have been
/// transient — branch statistics that only skew once the program
/// leaves its warm-up phase.
/// ExecBlock::threaded / Trace::threaded reuse the same sentinels for
/// the lowered threaded-code program. A block always lowers, so its
/// program is unformed or an index; only a trace lowering can be
/// declined, permanently, when the trace op budget runs out.
constexpr int32_t kTraceUnformed = -1;
constexpr int32_t kTraceDeclined = -2;

/// Trace-formation limits: blocks spliced per trace (a revisited block
/// unrolls a hot loop into the trace) and instructions per trace.
constexpr uint32_t kTraceMaxBlocks = 8;
constexpr uint32_t kTraceMaxInstrs = 256;

/// Total ThreadedOp records one core may lower into traces. Blocks
/// repeat across traces, so trace programs are not bounded by the image
/// and need this cap; exhaustion declines further trace lowerings
/// permanently (their heads keep running block by block). Block programs
/// draw nothing from it: each block lowers at most once, so they are
/// bounded by the image, like the artifact's predecode.
constexpr size_t kThreadedBudgetOps = size_t{1} << 16;

/// One executable cached block: the per-core mutable residue plus a
/// pointer into the shared artifact's immutable tables. The forwarding
/// accessors give dispatch the block's shape (lowering reads the rest of
/// `stat` directly); everything dispatch *writes* is a plain member
/// here, so the shared StaticBlock is never touched.
struct ExecBlock {
  /// The immutable half, owned by the BlockCache's ProgramArtifact
  /// (whose shared_ptr outlives every ExecBlock pointing into it).
  const StaticBlock* stat = nullptr;

  [[nodiscard]] uint32_t addr() const { return stat->addr; }
  [[nodiscard]] const std::vector<trc::Instr>& instrs() const {
    return stat->instrs;
  }
  /// Successor indices into BlockCache::blocks() (-1 = none / dynamic).
  [[nodiscard]] int32_t target() const { return stat->target; }
  [[nodiscard]] int32_t fall_through() const { return stat->fall_through; }

  /// Index into BlockCache::traces() of the superblock headed by this
  /// block, or kTraceUnformed.
  int32_t trace = kTraceUnformed;
  /// Index into BlockCache::threaded() of this block's lowered
  /// threaded-code form, or kTraceUnformed before its first dispatch.
  int32_t threaded = kTraceUnformed;
  /// exec_count at which a declined trace formation is re-attempted
  /// (doubled on every refusal, so retries stay O(log) per block).
  uint64_t trace_retry_at = 0;
  /// Hot-count statistic: number of times the block was dispatched.
  uint64_t exec_count = 0;
  /// Observed successor outcomes under chained dispatch: retired with
  /// control continuing at `target` / at `fall_through`. Trace formation
  /// picks the dominant edge from these.
  uint64_t taken_count = 0;
  uint64_t ft_count = 0;
  /// Statistics: dispatches that arrived through a chained successor
  /// edge, and retirements inside a superblock trace.
  uint64_t chain_entries = 0;
  uint64_t trace_execs = 0;
};

/// One constituent block of a Trace. `entry_addr` doubles as the guard
/// of the *preceding* segment: execution stays on the trace only while
/// the pc observed at the original block boundary equals the next
/// segment's entry address.
struct TraceSegment {
  int32_t block = -1;  ///< index into BlockCache::blocks()
  uint32_t entry_addr = 0;
};

/// A superblock: a hot chain of blocks dispatched as one unit once
/// lowered into threaded code (lowerTraceThreaded reads each segment
/// straight from its block's predecoded arrays). All architectural
/// corrections still happen at the original block boundaries during
/// dispatch, which is what keeps trace execution bit-identical to
/// per-block execution. Traces are per-core (formed from this core's
/// observed branch statistics), so they live in the overlay, not the
/// shared artifact.
struct Trace {
  uint32_t addr = 0;  ///< head block address
  std::vector<TraceSegment> segs;
  /// Total instruction count across all segments. The dispatcher admits
  /// a trace only when the whole trace fits the remaining instruction
  /// budget, so no per-boundary budget test survives inside.
  uint32_t total_instrs = 0;
  /// Lowered threaded-code form of this trace (see ExecBlock::threaded).
  int32_t threaded = kTraceUnformed;
};

class BlockCache {
 public:
  /// Builds the per-core overlay over a shared artifact: one small
  /// ExecBlock of counters per StaticBlock. The expensive predecode
  /// happened once, when the artifact was built — constructing a
  /// thousand more caches over the same artifact costs a thousand
  /// counter vectors, not a thousand decodes.
  explicit BlockCache(std::shared_ptr<const ProgramArtifact> artifact);

  [[nodiscard]] const ProgramArtifact& artifact() const { return *artifact_; }

  [[nodiscard]] const std::vector<ExecBlock>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] std::vector<ExecBlock>& blocks() { return blocks_; }

  /// Cached block starting at `addr`, or nullptr when `addr` is not a
  /// block leader (the caller falls back to per-instruction stepping).
  [[nodiscard]] ExecBlock* lookup(uint32_t addr) {
    const int32_t i = artifact_->graph().indexAt(addr);
    return i < 0 ? nullptr : &blocks_[static_cast<size_t>(i)];
  }

  /// The `n` most executed blocks, hottest first (ties by address).
  [[nodiscard]] std::vector<const ExecBlock*> hottest(size_t n) const;

  [[nodiscard]] const std::vector<Trace>& traces() const { return traces_; }
  [[nodiscard]] std::vector<Trace>& traces() { return traces_; }

  /// Splices the block at `head` with its dominant successors into a new
  /// superblock (see trace.cpp for the formation rules). Returns the new
  /// trace's index, or kTraceDeclined when no multi-block trace can be
  /// formed. Does not modify blocks()[head].trace — the caller records
  /// the verdict there.
  int32_t formTrace(int32_t head);

  // -- threaded-code lowering (core/threaded.h, DESIGN.md section 6) ---

  /// Lowers the block at `idx` / the trace at `trace_idx` into a
  /// threaded program using the ISS-supplied handler binder and returns
  /// the new program's index. A trace lowering returns kTraceDeclined
  /// instead when it would push the per-core trace op total past
  /// kThreadedBudgetOps. Like formTrace, the caller records the verdict.
  int32_t lowerBlockThreaded(int32_t idx, const ThreadedBinder& binder);
  int32_t lowerTraceThreaded(int32_t trace_idx, const ThreadedBinder& binder);

  [[nodiscard]] const ThreadedProgram& threaded(int32_t idx) const {
    return threaded_[static_cast<size_t>(idx)];
  }

 private:
  std::shared_ptr<const ProgramArtifact> artifact_;
  std::vector<ExecBlock> blocks_;
  std::vector<Trace> traces_;
  std::vector<ThreadedProgram> threaded_;
  size_t trace_ops_ = 0;  ///< ops lowered into traces (the budget's count)
  arch::BranchModel branch_;
};

}  // namespace cabt::core
