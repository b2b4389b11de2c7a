#include "core/block_graph.h"

#include "arch/icache_model.h"
#include "arch/timing.h"
#include "common/error.h"
#include "trc/program.h"

namespace cabt::core {

namespace {

/// The static part of a block's branch cost: the fixed extra of a
/// terminating unconditional control transfer (a conditional branch
/// contributes its minimum, zero).
uint32_t staticBranchExtra(const arch::ArchDescription& desc,
                           const trc::Instr& last) {
  return last.isControlTransfer() && last.cls() != arch::OpClass::kBranchCond
             ? desc.branch.unconditionalExtra(last.cls())
             : 0;
}

}  // namespace

BlockGraph BlockGraph::build(const arch::ArchDescription& desc,
                             const elf::Object& object,
                             const std::vector<uint32_t>& extra_leaders) {
  BlockGraph graph;
  graph.instrs_ = trc::decodeText(object);
  CABT_CHECK(!graph.instrs_.empty(), "program has no instructions");
  graph.leaders_ = trc::findLeaders(object, graph.instrs_);
  graph.entry_ = object.entry;
  for (const uint32_t addr : extra_leaders) {
    const uint32_t first = graph.instrs_.front().addr;
    const trc::Instr& last_instr = graph.instrs_.back();
    if (addr >= first && addr <= last_instr.addr) {
      graph.leaders_.insert(addr);
    }
  }

  {
    const trc::Instr& last_instr = graph.instrs_.back();
    graph.text_base_ = graph.instrs_.front().addr;
    graph.text_span_ = last_instr.addr + last_instr.size - graph.text_base_;
    graph.leader_bits_.assign((graph.text_span_ / 2 + 63) / 64, 0);
    for (const uint32_t addr : graph.leaders_) {
      const uint32_t bit = (addr - graph.text_base_) >> 1;
      graph.leader_bits_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }

  for (size_t i = 0; i < graph.instrs_.size(); ++i) {
    const trc::Instr& instr = graph.instrs_[i];
    if (graph.blocks_.empty() || graph.leaders_.count(instr.addr) != 0) {
      Block block;
      block.addr = instr.addr;
      block.first = static_cast<uint32_t>(i);
      graph.by_addr_.emplace(instr.addr, graph.blocks_.size());
      graph.blocks_.push_back(block);
    }
    Block& current = graph.blocks_.back();
    ++current.count;
    CABT_CHECK(current.count == 1 ||
                   !graph.instrs_[i - 1].isControlTransfer(),
               "control transfer in the middle of a block");
  }

  // Successor edges. A direct target outside .text has no block and the
  // edge is dropped, exactly as the old per-pass successor lookups did.
  for (size_t i = 0; i < graph.blocks_.size(); ++i) {
    Block& b = graph.blocks_[i];
    const trc::Instr& last = graph.last(b);
    const int32_t next = i + 1 < graph.blocks_.size()
                             ? static_cast<int32_t>(i + 1)
                             : -1;
    if (!last.isControlTransfer()) {
      b.fall_through = next;
      continue;
    }
    switch (last.cls()) {
      case arch::OpClass::kBranchCond:
        b.target = graph.indexAt(last.branchTarget());
        b.fall_through = next;
        break;
      case arch::OpClass::kBranchUncond:
      case arch::OpClass::kCall:
        b.target = graph.indexAt(last.branchTarget());
        break;
      case arch::OpClass::kBranchInd:
        break;  // resolved at run time (return sites are leaders)
      default:
        break;
    }
  }

  // Static timing and cache analysis blocks, once per block.
  graph.schedule_.reserve(graph.instrs_.size());
  for (Block& b : graph.blocks_) {
    const std::span<const trc::Instr> instrs = graph.instrs(b);
    arch::PipelineTimer timer(desc.pipeline);
    for (const trc::Instr& in : instrs) {
      timer.issue(in.timedOp());
      graph.schedule_.push_back(static_cast<uint32_t>(timer.cycles()));
    }
    b.static_cycles =
        graph.schedule_.back() + staticBranchExtra(desc, instrs.back());
    if (!desc.icache.enabled) {
      continue;
    }
    b.cab_first = static_cast<uint32_t>(graph.cabs_.size());
    for (uint32_t k = 0; k < b.count; ++k) {
      const uint32_t addr = instrs[k].addr;
      if (k > 0 &&
          desc.icache.lineOf(addr) == desc.icache.lineOf(instrs[k - 1].addr)) {
        continue;  // same line as the previous touch: one access
      }
      graph.cabs_.push_back(
          {k, desc.icache.setOf(addr),
           arch::ICacheState::tagWord(desc.icache.tagOf(addr))});
    }
    b.cab_count = static_cast<uint32_t>(graph.cabs_.size()) - b.cab_first;
  }
  return graph;
}

uint32_t staticBlockCycles(const arch::ArchDescription& desc,
                           const trc::Instr* instrs, size_t count) {
  CABT_CHECK(count > 0, "empty basic block");
  arch::PipelineTimer timer(desc.pipeline);
  for (size_t i = 0; i < count; ++i) {
    timer.issue(instrs[i].timedOp());
  }
  return static_cast<uint32_t>(timer.cycles()) +
         staticBranchExtra(desc, instrs[count - 1]);
}

}  // namespace cabt::core
