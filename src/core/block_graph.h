// Shared program-analysis layer: decoded instructions, basic blocks and
// per-block static timing over a TRC32 ELF image.
//
// The block graph is the single source of truth for block boundaries.
// Both consumers of block structure build on it:
//   * the translator front end (xlat/) converts graph blocks into its
//     SourceBlock pass records, and
//   * the reference ISS executes from a core::BlockCache predecoded from
//     the graph (see core/block_cache.h).
// Keeping one construction guarantees the "ground truth" ISS and the
// translated image can never disagree about where a block starts or what
// its static issue schedule costs (DESIGN.md, "Basic blocks").
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "arch/arch.h"
#include "elf/elf.h"
#include "trc/isa.h"

namespace cabt::core {

/// One basic block: a maximal single-entry straight-line run of
/// instructions. Instructions are stored once, in the graph, in address
/// order; a block is a [first, first+count) slice of that array.
struct Block {
  uint32_t addr = 0;        ///< address of the first instruction
  uint32_t first = 0;       ///< index of the first instruction in the graph
  uint32_t count = 0;       ///< number of instructions
  /// Static cycle count (paper section 3.3): issue schedule from a
  /// drained pipeline plus the static part of the branch cost. Filled by
  /// BlockGraph::computeStaticCycles.
  uint32_t static_cycles = 0;
  /// Successor edges as block indices (-1 = none). `target` is the direct
  /// branch/call target; `fall_through` the next block in address order
  /// (absent after an unconditional transfer or at the end of .text).
  int32_t target = -1;
  int32_t fall_through = -1;
};

class BlockGraph {
 public:
  /// Decodes .text, discovers leaders and builds the blocks with their
  /// successor edges. Throws cabt::Error on undecodable or empty input.
  /// `extra_leaders` adds block boundaries that static control flow does
  /// not reveal — e.g. interrupt handler entries, which are only ever
  /// reached via the interrupt controller's vector register (addresses
  /// outside .text are ignored).
  static BlockGraph build(const elf::Object& object,
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
  [[nodiscard]] const trc::Instr* begin(const Block& b) const {
    return instrs_.data() + b.first;
  }
  [[nodiscard]] const trc::Instr* end(const Block& b) const {
    return instrs_.data() + b.first + b.count;
  }
  [[nodiscard]] const trc::Instr& last(const Block& b) const {
    return instrs_[b.first + b.count - 1];
  }

  /// Fills Block::static_cycles for every block.
  void computeStaticCycles(const arch::ArchDescription& desc);

 private:
  std::vector<trc::Instr> instrs_;
  std::vector<Block> blocks_;
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
/// translator's per-instruction-unit mode.
uint32_t staticBlockCycles(const arch::ArchDescription& desc,
                           const trc::Instr* instrs, size_t count);

}  // namespace cabt::core
