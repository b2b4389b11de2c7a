// Internal data structures shared between the translator's passes.
//
// Every static fact about a source block — its instructions, successors,
// static cycles and cache analysis blocks — is read from the block's one
// record in the shared artifact (core::Block, core/block_graph.h), the
// record the reference ISS executes from. A translation unit
// (SourceBlock) views the record's instructions and copies its static
// cycles; the passes attach only per-translation state: which CABs keep
// their lookup after the MRU-hit analysis, and the emitted code.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "arch/arch.h"
#include "core/block_graph.h"
#include "trc/isa.h"
#include "vliw/isa.h"
#include "xlat/translator.h"

namespace cabt::xlat {

/// One target op produced by lowering, before scheduling. The scheduler
/// assigns units; the emitter patches fixups once packet addresses are
/// known.
struct XOp {
  vliw::MachineOp op;
  enum class Fixup : uint8_t {
    kNone,
    kBranchToBlock,    ///< op.imm <- target address of source block
    kBranchToRoutine,  ///< op.imm <- address of the cache routine
    kRetAddrLo,        ///< op.imm <- low half of the post-call address
    kRetAddrHi,        ///< op.imm <- high half of the post-call address
  };
  Fixup fixup = Fixup::kNone;
  uint32_t fixup_data = 0;  ///< kBranchToBlock: source target address;
                            ///< kRetAddr*: call id within the block
  bool volatile_mem = false;
  bool is_call = false;  ///< segment boundary: delay slots must stay empty
};

/// One translation unit: a graph block, or in instruction-oriented mode
/// one instruction of it (paper section 3.5), and what the passes attach
/// to it.
struct SourceBlock {
  /// The unit's instructions: a view into the graph's decoded array.
  std::span<const trc::Instr> instrs;
  /// n of the unit's "start cycle generation": the block record's static
  /// cycles, or core::staticBlockCycles of the unit's one instruction.
  uint32_t static_cycles = 0;
  /// The CABs whose lookups the translated code performs, in order, with
  /// `start` relative to the unit: the block record's CABs (for a
  /// one-instruction unit, the CAB that holds the instruction) until
  /// elideMruHits drops the proven hits. Empty below icache level.
  std::vector<core::CacheAnalysisBlock> lookups;
  std::vector<XOp> code;

  [[nodiscard]] uint32_t addr() const { return instrs.front().addr; }
  [[nodiscard]] const trc::Instr& last() const { return instrs.back(); }
  [[nodiscard]] bool endsWithControlTransfer() const {
    return last().isControlTransfer();
  }
};

/// Byte stride of one set's state in the cache data area: `ways`
/// combined tag+valid words plus one LRU word.
inline uint32_t cacheSetStride(const arch::ICacheModel& icache) {
  return (icache.ways + 1) * 4;
}

/// Constant-propagation lattice value for an address register.
struct AddrValue {
  enum class State : uint8_t { kBottom, kConst, kTop };
  State state = State::kBottom;
  uint32_t value = 0;

  static AddrValue bottom() { return {State::kBottom, 0}; }
  static AddrValue top() { return {State::kTop, 0}; }
  static AddrValue constant(uint32_t v) { return {State::kConst, v}; }
  [[nodiscard]] bool isConst() const { return state == State::kConst; }
  bool operator==(const AddrValue&) const = default;

  /// Lattice meet.
  [[nodiscard]] AddrValue meet(const AddrValue& other) const {
    if (state == State::kBottom) {
      return other;
    }
    if (other.state == State::kBottom) {
      return *this;
    }
    if (*this == other) {
      return *this;
    }
    return top();
  }
};

/// Result of the base-address analysis (paper Fig. 1: "finding base
/// addresses"): classification of every memory access and the set of
/// MOVHA instructions whose immediate must be rewritten to the target
/// address space.
struct AddressAnalysis {
  /// Source address of each memory instruction -> statically known
  /// effective address (absent = unknown base).
  std::map<uint32_t, uint32_t> known_ea;
  /// Source addresses of MOVHA instructions -> new immediate.
  std::map<uint32_t, uint16_t> movha_rewrites;
  uint64_t io_accesses = 0;
  uint64_t ram_accesses = 0;
  uint64_t unknown_accesses = 0;
};

/// Runs the forward constant propagation over the block graph (leaders,
/// blocks and successor edges all come from the shared core layer).
AddressAnalysis analyzeAddresses(const arch::ArchDescription& desc,
                                 const core::BlockGraph& graph);

/// Static MRU-hit analysis (DESIGN.md section 2.4): removes from the
/// lookups of `blocks` (one per graph block, in graph order) every CAB
/// whose line is the most recently used line of its set on every path
/// reaching it. Such a lookup hits and changes no tag or LRU word.
/// Returns how many lookups it removed.
uint64_t elideMruHits(const arch::ICacheModel& icache,
                      const core::BlockGraph& graph,
                      std::vector<SourceBlock>& blocks);

/// Lowers every block to target ops, inserting annotation and dynamic
/// correction code according to the detail level.
struct LowerContext {
  const arch::ArchDescription* desc = nullptr;
  const AddressAnalysis* addresses = nullptr;
  TranslateOptions options;
  uint8_t dispatch_reg = 0;  ///< register holding the dispatch constant
};
void lowerBlocks(const LowerContext& ctx, std::vector<SourceBlock>& blocks);

/// Generates the cache-correction routine (paper Fig. 4) as ops.
std::vector<XOp> buildCacheRoutine(const arch::ICacheModel& icache,
                                   bool inline_body);

/// Schedules a block's ops into execute packets (greedy in-order packing
/// honouring unit constraints, result latencies and volatile order).
/// `fixups` receives (packet index, op index) -> XOp metadata for the
/// emitter.
struct ScheduledBlock {
  std::vector<vliw::Packet> packets;
  /// For each packet/op that needs patching: location + metadata.
  struct PendingFixup {
    size_t packet = 0;
    size_t op = 0;
    XOp::Fixup fixup = XOp::Fixup::kNone;
    uint32_t data = 0;
  };
  std::vector<PendingFixup> fixups;
  /// Packet index right after each call's delay slots (call id -> index).
  std::vector<size_t> call_returns;
};
ScheduledBlock scheduleBlock(const std::vector<XOp>& ops);

}  // namespace cabt::xlat
