// Shared program-analysis layer: decoded instructions, basic blocks and
// the one per-block record over a TRC32 ELF image.
//
// The block graph is the single source of truth for block boundaries and
// for every static fact about a block: its successors, its static cycles
// (paper section 3.3), its cumulative issue schedule and its cache
// analysis blocks (paper section 3.4.2). It is built once per (image,
// timing configuration) by the ProgramArtifact (program_artifact.h), and
// both consumers read the same record:
//   * the reference ISS lowers each block into threaded code straight
//     from it (core/block_cache.h, core/threaded.cpp), and
//   * every translator pass (xlat/) reads its blocks, static cycles and
//     CABs from it; the translator keeps only per-translation state.
// Keeping one construction guarantees the "ground truth" ISS and the
// translated image can never disagree about where a block starts, what
// its static issue schedule costs or which cache lines it touches
// (DESIGN.md section 3).
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "arch/arch.h"
#include "elf/elf.h"
#include "trc/isa.h"

namespace cabt::core {

/// One cache analysis block (paper section 3.4.2): a maximal run of a
/// block's instructions whose first bytes lie in one cache line. This is
/// the fetch rule of DESIGN.md section 2.3: within a block, consecutive
/// touches of one line are a single access, and the sequence restarts
/// at every block boundary. The ISS touches the line at the CAB's first
/// instruction; the translated code emits its lookup there.
struct CacheAnalysisBlock {
  uint32_t start = 0;     ///< index of its first instruction in the block
  uint32_t set = 0;       ///< icache set index
  uint32_t tag_word = 0;  ///< (tag << 1) | valid, as the cache stores it
};

/// One basic block: a maximal single-entry straight-line run of
/// instructions, and the one record of its static facts. Instructions,
/// their issue schedule and the CABs are stored once, in the graph; a
/// block holds spans into those arrays (BlockGraph::instrs, ::schedule,
/// ::cabs).
struct Block {
  uint32_t addr = 0;        ///< address of the first instruction
  uint32_t first = 0;       ///< index of the first instruction in the graph
  uint32_t count = 0;       ///< number of instructions
  /// Static cycle count (paper section 3.3): issue schedule from a
  /// drained pipeline plus the static part of the branch cost, the count
  /// staticBlockCycles gives for the block's instructions.
  uint32_t static_cycles = 0;
  /// Successor edges as block indices (-1 = none). `target` is the direct
  /// branch/call target; `fall_through` the next block in address order
  /// (absent after an unconditional transfer or at the end of .text).
  int32_t target = -1;
  int32_t fall_through = -1;
  /// The block's CABs: [cab_first, cab_first + cab_count) of the graph's
  /// CAB array. None without an icache.
  uint32_t cab_first = 0;
  uint32_t cab_count = 0;
};

class BlockGraph {
 public:
  /// Decodes .text, discovers leaders and builds the blocks with their
  /// successor edges, static cycles, issue schedules and (when `desc`
  /// has an icache) CABs. Throws cabt::Error on undecodable or empty
  /// input. `extra_leaders` adds block boundaries that static control
  /// flow does not reveal — e.g. interrupt handler entries, which are
  /// only ever reached via the interrupt controller's vector register
  /// (addresses outside .text are ignored).
  static BlockGraph build(const arch::ArchDescription& desc,
                          const elf::Object& object,
                          const std::vector<uint32_t>& extra_leaders = {});

  [[nodiscard]] const std::vector<trc::Instr>& instrs() const {
    return instrs_;
  }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  [[nodiscard]] const std::set<uint32_t>& leaders() const { return leaders_; }
  [[nodiscard]] uint32_t entry() const { return entry_; }

  /// Index of the block starting at `addr`, or -1 when `addr` is not a
  /// block leader.
  [[nodiscard]] int32_t indexAt(uint32_t addr) const {
    const auto it = by_addr_.find(addr);
    return it == by_addr_.end() ? -1 : static_cast<int32_t>(it->second);
  }

  /// O(1) leader probe over a flat bitmap spanning .text. This is the
  /// execution hot path's replacement for `leaders().count(addr)`: no
  /// tree walk, no hashing — one shift-and-mask per dispatched block.
  /// Addresses outside .text answer false (they cannot be leaders).
  [[nodiscard]] bool isLeaderFast(uint32_t addr) const {
    const uint32_t off = addr - text_base_;  // wraps for addr < base
    if (off >= text_span_) {
      return false;
    }
    const uint32_t bit = off >> 1;  // instructions are 2-byte aligned
    return ((leader_bits_[bit >> 6] >> (bit & 63)) & 1u) != 0;
  }

  [[nodiscard]] const Block* blockAt(uint32_t addr) const {
    const int32_t i = indexAt(addr);
    return i < 0 ? nullptr : &blocks_[static_cast<size_t>(i)];
  }

  /// Instruction slice of a block.
  [[nodiscard]] std::span<const trc::Instr> instrs(const Block& b) const {
    return {instrs_.data() + b.first, b.count};
  }
  [[nodiscard]] const trc::Instr& last(const Block& b) const {
    return instrs_[b.first + b.count - 1];
  }
  /// Cumulative issue-schedule cycles after each instruction of a block,
  /// from a drained pipeline (arch::PipelineTimer::cycles()): the TRC32
  /// pipeline drains at block boundaries, so the schedule is a pure
  /// function of the block.
  [[nodiscard]] std::span<const uint32_t> schedule(const Block& b) const {
    return {schedule_.data() + b.first, b.count};
  }
  /// The block's cache analysis blocks, in instruction order.
  [[nodiscard]] std::span<const CacheAnalysisBlock> cabs(
      const Block& b) const {
    return {cabs_.data() + b.cab_first, b.cab_count};
  }

 private:
  std::vector<trc::Instr> instrs_;
  std::vector<uint32_t> schedule_;  ///< parallel to instrs_
  std::vector<Block> blocks_;
  std::vector<CacheAnalysisBlock> cabs_;
  std::set<uint32_t> leaders_;
  std::unordered_map<uint32_t, size_t> by_addr_;
  uint32_t entry_ = 0;
  // Flat leader bitmap over [text_base_, text_base_ + text_span_), one
  // bit per 2-byte slot. Mirrors `leaders_`; rebuilt alongside it.
  uint32_t text_base_ = 0;
  uint32_t text_span_ = 0;
  std::vector<uint64_t> leader_bits_;
};

/// Static cycle count of one straight-line instruction sequence executed
/// from a drained pipeline: the issue schedule plus the fixed extra of a
/// terminating unconditional control transfer. Conditional branches
/// contribute their minimum (zero extra) statically; the rest is dynamic
/// correction (paper section 3.4.1). Shared by BlockGraph and the
/// translator's instruction-oriented units (one instruction each).
uint32_t staticBlockCycles(const arch::ArchDescription& desc,
                           const trc::Instr* instrs, size_t count);

}  // namespace cabt::core
