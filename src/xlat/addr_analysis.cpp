// Base-address analysis (paper Fig. 1: "finding base addresses").
//
// A forward constant propagation over the address registers discovers, as
// far as statically possible, the effective address of every load/store.
// The results are used to (a) classify accesses as memory vs. I/O and
// (b) rewrite the base addresses materialised by MOVHA instructions into
// the target system's address space (the paper: "change the base
// addresses of load/store instructions accessing memory to the new memory
// addresses of the target system").
//
// Blocks, leaders and successor edges come from the shared
// core::BlockGraph (the same structure the reference ISS executes from).
//
// Pointer invariant: address registers hold *target* addresses at run
// time, because every pointer originates from a (rewritten) MOVHA
// materialisation and pointer arithmetic preserves the region-wise linear
// remapping. Code addresses (link register) stay in the source space and
// are mapped through the dispatch table on indirect jumps. Remap deltas
// must be 64 KiB aligned so that only the MOVHA immediate changes.
#include <deque>

#include "common/error.h"
#include "common/strutil.h"
#include "xlat/internal.h"

namespace cabt::xlat {
namespace {

using trc::Opc;

struct BlockState {
  std::array<AddrValue, 16> regs;

  static BlockState allTop() {
    BlockState s;
    s.regs.fill(AddrValue::top());
    return s;
  }
  static BlockState allBottom() {
    BlockState s;
    s.regs.fill(AddrValue::bottom());
    return s;
  }
  [[nodiscard]] BlockState meet(const BlockState& other) const {
    BlockState out;
    for (size_t i = 0; i < regs.size(); ++i) {
      out.regs[i] = regs[i].meet(other.regs[i]);
    }
    return out;
  }
  bool operator==(const BlockState&) const = default;
};

/// Applies one instruction's effect on the address registers.
void transfer(const trc::Instr& in, BlockState& s) {
  switch (in.opc) {
    case Opc::kMovha:
      s.regs[in.rd] = AddrValue::constant(static_cast<uint32_t>(in.imm)
                                          << 16);
      break;
    case Opc::kLea:
      s.regs[in.rd] =
          s.regs[in.ra].isConst()
              ? AddrValue::constant(s.regs[in.ra].value +
                                    static_cast<uint32_t>(in.imm))
              : AddrValue::top();
      break;
    case Opc::kAdda:
      s.regs[in.rd] = s.regs[in.ra].isConst() && s.regs[in.rb].isConst()
                          ? AddrValue::constant(s.regs[in.ra].value +
                                                s.regs[in.rb].value)
                          : AddrValue::top();
      break;
    case Opc::kSuba:
      s.regs[in.rd] = s.regs[in.ra].isConst() && s.regs[in.rb].isConst()
                          ? AddrValue::constant(s.regs[in.ra].value -
                                                s.regs[in.rb].value)
                          : AddrValue::top();
      break;
    case Opc::kMova:
    case Opc::kLda:
      s.regs[in.rd] = AddrValue::top();  // data values are not tracked
      break;
    case Opc::kJl:
      s.regs[trc::kLinkRegister] =
          AddrValue::constant(in.addr + in.size);
      break;
    default:
      break;  // no address register written
  }
}

}  // namespace

AddressAnalysis analyzeAddresses(const arch::ArchDescription& desc,
                                 const core::BlockGraph& graph) {
  const std::vector<core::Block>& blocks = graph.blocks();

  // Entry states; seeded Top at the program entry and at call-return
  // sites (control arrives there through an indirect jump from a callee
  // whose effects are not tracked interprocedurally).
  std::vector<BlockState> entry_state(blocks.size(), BlockState::allBottom());
  std::deque<size_t> worklist;
  const auto seed = [&](size_t i) {
    entry_state[i] = BlockState::allTop();
    worklist.push_back(i);
  };
  if (const int32_t i = graph.indexAt(graph.entry()); i >= 0) {
    seed(static_cast<size_t>(i));
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (graph.last(blocks[i]).cls() == arch::OpClass::kCall &&
        i + 1 < blocks.size()) {
      seed(i + 1);  // return site
    }
  }

  const auto successors = [&](size_t i) {
    std::vector<size_t> out;
    if (blocks[i].target >= 0) {
      out.push_back(static_cast<size_t>(blocks[i].target));
    }
    if (blocks[i].fall_through >= 0) {
      out.push_back(static_cast<size_t>(blocks[i].fall_through));
    }
    return out;
  };

  while (!worklist.empty()) {
    const size_t i = worklist.front();
    worklist.pop_front();
    BlockState s = entry_state[i];
    for (const trc::Instr& in : graph.instrs(blocks[i])) {
      transfer(in, s);
    }
    for (const size_t succ : successors(i)) {
      const BlockState merged = entry_state[succ].meet(s);
      if (!(merged == entry_state[succ])) {
        entry_state[succ] = merged;
        worklist.push_back(succ);
      }
    }
  }

  // Harvest: known effective addresses + classification.
  AddressAnalysis out;
  for (size_t i = 0; i < blocks.size(); ++i) {
    BlockState s = entry_state[i];
    for (const trc::Instr& in : graph.instrs(blocks[i])) {
      if (in.cls() == arch::OpClass::kLoad ||
          in.cls() == arch::OpClass::kStore) {
        if (s.regs[in.ra].isConst()) {
          const uint32_t ea =
              s.regs[in.ra].value + static_cast<uint32_t>(in.imm);
          out.known_ea.emplace(in.addr, ea);
          if (desc.memory_map.kindOf(ea) == RegionKind::kIo) {
            ++out.io_accesses;
          } else {
            ++out.ram_accesses;
          }
        } else {
          ++out.unknown_accesses;
        }
      }
      transfer(in, s);
    }
  }

  // MOVHA rewriting into the target address space.
  for (const trc::Instr& in : graph.instrs()) {
    if (in.opc != Opc::kMovha) {
      continue;
    }
    const uint32_t value = static_cast<uint32_t>(in.imm) << 16;
    const MemRegion* region = desc.memory_map.find(value);
    if (region == nullptr || region->remap_base == region->base) {
      continue;
    }
    const uint32_t delta = region->remap_base - region->base;
    CABT_CHECK((delta & 0xffffu) == 0,
               "remap delta of region '"
                   << region->name
                   << "' is not 64 KiB aligned; cannot rewrite MOVHA at "
                   << hex32(in.addr));
    out.movha_rewrites.emplace(
        in.addr,
        static_cast<uint16_t>((static_cast<uint32_t>(in.imm) +
                               (delta >> 16)) &
                              0xffffu));
  }
  return out;
}

}  // namespace cabt::xlat
