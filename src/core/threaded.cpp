// Threaded-code lowering and superblock (trace) formation: turns the
// artifact's block records into flat ThreadedOp programs (core/threaded.h,
// DESIGN.md section 6).
//
// Lowering is a pure per-instruction transcription — every dynamic
// decision step()'s decode switch makes per instruction is resolved
// here, once, at a block's first dispatch or a trace's formation:
//   * the handler is selected through the ISS's binder with the icache
//     line touch baked in at each cache analysis block's first
//     instruction (the fetch rule, from the block record's CAB list);
//   * immediates are materialized (kMovh/kMovha pre-shifted), branch
//     targets and fall-through addresses become absolute;
//   * the static branch prediction and both conditional outcome extras
//     are precomputed from the architecture's BranchModel, so the
//     handler adds a table value instead of consulting the model;
//   * the cumulative issue-schedule cycles and icache set/tag words are
//     copied from the block record.
// A segment whose last instruction does not transfer control gets the
// synthetic fall-through terminator, which advances the pc to the next
// leader and returns nullptr — the dispatcher's signal to run the
// block-boundary epoch.
//
// A trace stitches a hot block and its dominant successors into one
// threaded program, in the style of a trace cache: the chain is chosen
// from the successor outcomes observed by chained dispatch
// (ExecBlock::taken_count / ft_count) and guarded at every original
// block boundary by the next segment's entry address. The
// execution-time semantics (corrections at original boundaries, guard
// bails) live in the ISS.
#include "core/threaded.h"

#include "core/block_cache.h"

namespace cabt::core {

namespace {

/// Lowers one block into `out` from its record (line data only when
/// the binder says the icache is on). A trace lowers segment by segment
/// through the same call: the pipeline drains and the line-touch
/// sequence restarts at every original block boundary.
void lowerSegment(const BlockGraph& graph, const Block& b,
                  const arch::BranchModel& bm, const ThreadedBinder& binder,
                  std::vector<ThreadedOp>& out) {
  using trc::Opc;
  const std::span<const trc::Instr> instrs = graph.instrs(b);
  const std::span<const uint32_t> schedule = graph.schedule(b);
  const std::span<const CacheAnalysisBlock> cabs = graph.cabs(b);
  size_t next_cab = 0;
  for (size_t i = 0; i < instrs.size(); ++i) {
    const trc::Instr& in = instrs[i];
    ThreadedOp op;
    const bool touch = binder.icache_on && next_cab < cabs.size() &&
                       cabs[next_cab].start == i;
    op.fn = binder.select(in, touch);
    op.cum = schedule[i];
    if (touch) {
      op.line_set = cabs[next_cab].set;
      op.line_tag = cabs[next_cab].tag_word;
      ++next_cab;
    }
    op.rd = in.rd;
    op.ra = in.ra;
    op.rb = in.rb;
    op.a = static_cast<uint32_t>(in.imm);
    switch (in.cls()) {
      case arch::OpClass::kBranchCond: {
        op.a = in.addr + in.size;  // fall-through continuation
        op.b = in.branchTarget();
        const bool predicted = arch::BranchModel::predictsTaken(in.imm);
        if (predicted) {
          op.flags |= ThreadedOp::kPredictedTaken;
        }
        op.x0 = static_cast<uint8_t>(bm.conditionalExtra(predicted, true));
        op.x1 = static_cast<uint8_t>(bm.conditionalExtra(predicted, false));
        break;
      }
      case arch::OpClass::kBranchUncond:
      case arch::OpClass::kCall:
        op.a = in.addr + in.size;  // kJl's return address
        op.b = in.branchTarget();
        op.x0 = static_cast<uint8_t>(bm.unconditionalExtra(in.cls()));
        break;
      case arch::OpClass::kBranchInd:
        op.x0 = static_cast<uint8_t>(bm.unconditionalExtra(in.cls()));
        break;
      default:
        // Keyed on the opcode: BKPT's class is kNop, not kHalt. HALT
        // leaves the pc on itself; BKPT advances past itself.
        if (in.opc == Opc::kMovh || in.opc == Opc::kMovha) {
          op.a = static_cast<uint32_t>(in.imm) << 16;
        } else if (in.opc == Opc::kHalt) {
          op.a = in.addr;
        } else if (in.opc == Opc::kBkpt) {
          op.a = in.addr + in.size;
        }
        break;
    }
    out.push_back(op);
  }
  const trc::Instr& last = instrs.back();
  if (!last.isControlTransfer()) {
    // Leader-split segment end: no control transfer sets the pc, the
    // synthetic terminator advances it to the fall-through leader. (A
    // HALT/BKPT-terminated segment never reaches it — those handlers
    // return nullptr themselves — but the record keeps the layout
    // uniform.)
    ThreadedOp end;
    end.fn = binder.end;
    end.a = last.addr + last.size;
    end.cum = schedule.back();
    out.push_back(end);
  }
}

/// The successor a trace would speculate on after `b`, or -1 when the
/// block must terminate the trace: indirect terminators resolve
/// dynamically, and a conditional branch without a strictly dominant
/// observed outcome gives the guard no better than coin-flip odds.
int32_t dominantSuccessor(const BlockGraph& graph, const ExecBlock& b) {
  const trc::Instr& last = graph.last(*b.rec);
  if (!last.isControlTransfer()) {
    return b.fall_through();
  }
  switch (last.cls()) {
    case arch::OpClass::kBranchUncond:
    case arch::OpClass::kCall:
      return b.target();
    case arch::OpClass::kBranchCond:
      // Extend through a conditional only when one outcome clearly
      // dominates (4:1): a near-balanced branch makes the guard fail so
      // often that the bail overhead eats the trace's gain.
      if (b.taken_count > 4 * b.ft_count) {
        return b.target();
      }
      if (b.ft_count > 4 * b.taken_count) {
        return b.fall_through();
      }
      return -1;
    default:
      return -1;  // indirect: successor is dynamic
  }
}

}  // namespace

int32_t BlockCache::lowerBlockThreaded(int32_t idx,
                                       const ThreadedBinder& binder) {
  const ExecBlock& block = blocks_[static_cast<size_t>(idx)];
  ThreadedProgram prog;
  prog.addr = block.addr();
  prog.total_instrs = block.size();
  prog.ops.reserve(block.size() + 1);  // worst case: + terminator
  lowerSegment(artifact_->graph(), *block.rec, branch_, binder, prog.ops);
  prog.segs.push_back({idx, 0, block.addr()});
  threaded_.push_back(std::move(prog));
  return static_cast<int32_t>(threaded_.size()) - 1;
}

int32_t BlockCache::formTrace(int32_t head, const ThreadedBinder& binder) {
  std::vector<int32_t> chain;
  chain.push_back(head);
  uint32_t total = blocks_[static_cast<size_t>(head)].size();
  int32_t cur = head;
  while (chain.size() < kTraceMaxBlocks) {
    const int32_t next = dominantSuccessor(
        artifact_->graph(), blocks_[static_cast<size_t>(cur)]);
    if (next < 0) {
      break;
    }
    // A revisited block is allowed (it unrolls hot loops into the
    // trace).
    const uint32_t size = blocks_[static_cast<size_t>(next)].size();
    if (total + size > kTraceMaxInstrs) {
      break;
    }
    total += size;
    chain.push_back(next);
    cur = next;
  }
  if (chain.size() < 2) {
    return kTraceUnformed;  // a single block gains nothing over chaining
  }

  const size_t need = total + chain.size();  // worst case: + terminators
  if (trace_ops_ + need > kThreadedBudgetOps) {
    return kTraceDeclined;
  }
  ThreadedProgram prog;
  prog.addr = blocks_[static_cast<size_t>(head)].addr();
  prog.total_instrs = total;
  prog.ops.reserve(need);
  for (const int32_t idx : chain) {
    const ExecBlock& block = blocks_[static_cast<size_t>(idx)];
    prog.segs.push_back(
        {idx, static_cast<uint32_t>(prog.ops.size()), block.addr()});
    lowerSegment(artifact_->graph(), *block.rec, branch_, binder, prog.ops);
  }
  trace_ops_ += prog.ops.size();
  threaded_.push_back(std::move(prog));
  return static_cast<int32_t>(threaded_.size()) - 1;
}

}  // namespace cabt::core
