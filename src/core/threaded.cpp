// Threaded-code lowering: turns the block cache's predecoded arrays into
// flat ThreadedOp programs (core/threaded.h, DESIGN.md section 6).
//
// Lowering is a pure per-instruction transcription — every dynamic
// decision step()'s decode switch makes per instruction is resolved
// here, once, at a block's first dispatch or a trace's formation:
//   * the handler is selected through the ISS's binder with the icache
//     line-group touch (the block cache's new_line rule) baked in;
//   * immediates are materialized (kMovh/kMovha pre-shifted), branch
//     targets and fall-through addresses become absolute;
//   * the static branch prediction and both conditional outcome extras
//     are precomputed from the architecture's BranchModel, so the
//     handler adds a table value instead of consulting the model;
//   * the cumulative issue-schedule cycles and icache set/tag words are
//     copied from the (already precomputed) block-cache arrays.
// A segment whose last instruction does not transfer control gets the
// synthetic fall-through terminator, which advances the pc to the next
// leader and returns nullptr — the dispatcher's signal to run the
// block-boundary epoch.
#include "core/threaded.h"

#include "core/block_cache.h"

namespace cabt::core {

namespace {

/// Lowers one block into `out` from its predecoded tables (line data
/// indexed only when the binder says the icache is on). A trace lowers
/// segment by segment through the same call: the pipeline drains and the
/// line-group sequence restarts at every original block boundary.
void lowerSegment(const StaticBlock& b, const arch::BranchModel& bm,
                  const ThreadedBinder& binder,
                  std::vector<ThreadedOp>& out) {
  using trc::Opc;
  const size_t n = b.instrs.size();
  for (size_t i = 0; i < n; ++i) {
    const trc::Instr& in = b.instrs[i];
    ThreadedOp op;
    const bool touch = binder.icache_on && b.new_line[i] != 0;
    op.fn = binder.select(in, touch);
    op.cum = b.cum_cycles[i];
    if (touch) {
      op.line_set = b.line_set[i];
      op.line_tag = b.line_tag[i];
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
  const trc::Instr& last = b.instrs[n - 1];
  if (!last.isControlTransfer()) {
    // Leader-split segment end: no control transfer sets the pc, the
    // synthetic terminator advances it to the fall-through leader. (A
    // HALT/BKPT-terminated segment never reaches it — those handlers
    // return nullptr themselves — but the record keeps the layout
    // uniform.)
    ThreadedOp end;
    end.fn = binder.end;
    end.a = last.addr + last.size;
    end.cum = b.cum_cycles[n - 1];
    out.push_back(end);
  }
}

}  // namespace

int32_t BlockCache::lowerBlockThreaded(int32_t idx,
                                       const ThreadedBinder& binder) {
  const ExecBlock& block = blocks_[static_cast<size_t>(idx)];
  ThreadedProgram prog;
  prog.addr = block.addr();
  prog.total_instrs = static_cast<uint32_t>(block.instrs().size());
  prog.ops.reserve(block.instrs().size() + 1);  // worst case: + terminator
  lowerSegment(*block.stat, branch_, binder, prog.ops);
  prog.segs.push_back({idx, 0, block.addr()});
  threaded_.push_back(std::move(prog));
  return static_cast<int32_t>(threaded_.size()) - 1;
}

int32_t BlockCache::lowerTraceThreaded(int32_t trace_idx,
                                       const ThreadedBinder& binder) {
  const Trace& trace = traces_[static_cast<size_t>(trace_idx)];
  const size_t need = trace.total_instrs + trace.segs.size();
  if (trace_ops_ + need > kThreadedBudgetOps) {
    return kTraceDeclined;
  }
  ThreadedProgram prog;
  prog.addr = trace.addr;
  prog.total_instrs = trace.total_instrs;
  prog.ops.reserve(need);
  for (const TraceSegment& seg : trace.segs) {
    prog.segs.push_back(
        {seg.block, static_cast<uint32_t>(prog.ops.size()), seg.entry_addr});
    lowerSegment(*blocks_[static_cast<size_t>(seg.block)].stat, branch_,
                 binder, prog.ops);
  }
  trace_ops_ += prog.ops.size();
  threaded_.push_back(std::move(prog));
  return static_cast<int32_t>(threaded_.size()) - 1;
}

}  // namespace cabt::core
