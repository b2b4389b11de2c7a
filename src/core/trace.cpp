// Superblock (trace) formation over the predecoded block cache.
//
// A trace stitches a hot block and its dominant successors into one
// contiguous dispatch unit, in the style of a trace cache: the chain is
// chosen from the successor outcomes observed by chained dispatch
// (ExecBlock::taken_count / ft_count) and guarded at every original
// block boundary by the next segment's entry address. The builder only
// decides *which* blocks to splice; lowering (threaded.cpp) reads the
// constituents' predecoded arrays, and the execution-time semantics
// (corrections at original boundaries, guard bails) live in the ISS.
#include "core/block_cache.h"

namespace cabt::core {

namespace {

/// The successor a trace would speculate on after `b`, or -1 when the
/// block must terminate the trace: indirect terminators resolve
/// dynamically, and a conditional branch without a strictly dominant
/// observed outcome gives the guard no better than coin-flip odds.
int32_t dominantSuccessor(const ExecBlock& b) {
  const trc::Instr& last = b.instrs().back();
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

int32_t BlockCache::formTrace(int32_t head) {
  std::vector<int32_t> chain;
  chain.push_back(head);
  uint32_t total = static_cast<uint32_t>(blocks_[head].instrs().size());
  int32_t cur = head;
  while (chain.size() < kTraceMaxBlocks) {
    const int32_t next = dominantSuccessor(blocks_[cur]);
    if (next < 0) {
      break;
    }
    // A revisited block is allowed (it unrolls hot loops into the
    // trace).
    const ExecBlock& nb = blocks_[next];
    if (total + nb.instrs().size() > kTraceMaxInstrs) {
      break;
    }
    total += static_cast<uint32_t>(nb.instrs().size());
    chain.push_back(next);
    cur = next;
  }
  if (chain.size() < 2) {
    return kTraceDeclined;  // a single block gains nothing over chaining
  }

  Trace tr;
  tr.addr = blocks_[head].addr();
  tr.total_instrs = total;
  tr.segs.reserve(chain.size());
  for (const int32_t idx : chain) {
    tr.segs.push_back({idx, blocks_[idx].addr()});
  }
  traces_.push_back(std::move(tr));
  return static_cast<int32_t>(traces_.size() - 1);
}

}  // namespace cabt::core
