// Block cache: the per-core execution overlay over a shared artifact.
//
// The ISS hot loop executes whole cached blocks instead of re-fetching,
// re-classifying and re-scheduling every instruction on every execution
// (the paper's premise: decode and schedule once, at block granularity).
// Every static fact about a block lives once, in its record in the
// immutable shared ProgramArtifact (core::Block, block_graph.h): the
// instructions (a span of the graph's decoded array, no per-step address
// hash lookups, no leader-set probes), the cumulative issue schedule from
// a drained pipeline, and the cache analysis blocks of the fetch rule.
// The BlockCache is the *per-core overlay* over that artifact: hot
// counters and lowered threaded-code programs (each block lowered at its
// first dispatch, each trace on formation) — everything dispatch
// mutates — stays private per core, while N cores across M boards
// running the same image point at one shared artifact that is never
// written after publication. Dynamic state — register values, icache
// tags/LRU, branch outcomes — stays in the ISS; the per-block
// corrections are applied at block boundaries exactly as in
// per-instruction execution, which is why the engines are bit-identical
// (see DESIGN.md, "Block-cached execution").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/arch.h"
#include "core/block_graph.h"
#include "core/program_artifact.h"
#include "core/threaded.h"

namespace cabt::core {

/// ExecBlock::trace value while no trace exists. formTrace() returns it
/// when it refuses to splice (cold or ambiguous successors, indirect
/// terminator); that refusal is transient — branch statistics that only
/// skew once the program leaves its warm-up phase — so the dispatcher
/// re-attempts with geometric backoff (ExecBlock::trace_retry_at).
/// formTrace() returns kTraceDeclined when the trace op budget runs out,
/// and that decline is permanent. ExecBlock::threaded uses kTraceUnformed
/// too: a block always lowers, so its program is unformed or an index.
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
/// pointer to the block's record in the shared artifact. The forwarding
/// accessors give dispatch the block's shape (lowering reads the rest of
/// the record through the graph); everything dispatch *writes* is a
/// plain member here, so the shared record is never touched.
struct ExecBlock {
  /// The block's record, owned by the BlockCache's ProgramArtifact
  /// (whose shared_ptr outlives every ExecBlock pointing into it).
  const Block* rec = nullptr;

  [[nodiscard]] uint32_t addr() const { return rec->addr; }
  /// Number of instructions.
  [[nodiscard]] uint32_t size() const { return rec->count; }
  /// Successor indices into BlockCache::blocks() (-1 = none / dynamic).
  [[nodiscard]] int32_t target() const { return rec->target; }
  [[nodiscard]] int32_t fall_through() const { return rec->fall_through; }

  /// Index into BlockCache::threaded() of the lowered superblock trace
  /// headed by this block, kTraceUnformed, or kTraceDeclined.
  int32_t trace = kTraceUnformed;
  /// Index into BlockCache::threaded() of this block's lowered
  /// threaded-code form, or kTraceUnformed before its first dispatch.
  int32_t threaded = kTraceUnformed;
  /// exec_count at which a refused trace formation is re-attempted
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

class BlockCache {
 public:
  /// Builds the per-core overlay over a shared artifact: one small
  /// ExecBlock of counters per block record. The expensive predecode
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

  // -- threaded-code lowering (core/threaded.h, DESIGN.md section 6) ---

  /// Lowers the block at `idx` into a threaded program using the
  /// ISS-supplied handler binder and returns the program's index into
  /// threaded(). The caller records it in blocks()[idx].threaded.
  int32_t lowerBlockThreaded(int32_t idx, const ThreadedBinder& binder);

  /// Splices the block at `head` with its dominant successors into a
  /// superblock trace (see trace.cpp for the formation rules) and lowers
  /// it in the same step: a trace is its threaded program. Returns the
  /// program's index into threaded(); kTraceUnformed when no multi-block
  /// chain can be formed (a transient refusal); kTraceDeclined when the
  /// lowering would push the per-core trace op total past
  /// kThreadedBudgetOps (permanent). The caller records the verdict in
  /// blocks()[head].trace.
  int32_t formTrace(int32_t head, const ThreadedBinder& binder);

  [[nodiscard]] const ThreadedProgram& threaded(int32_t idx) const {
    return threaded_[static_cast<size_t>(idx)];
  }

 private:
  std::shared_ptr<const ProgramArtifact> artifact_;
  std::vector<ExecBlock> blocks_;
  std::vector<ThreadedProgram> threaded_;
  size_t trace_ops_ = 0;  ///< ops lowered into traces (the budget's count)
  arch::BranchModel branch_;
};

}  // namespace cabt::core
