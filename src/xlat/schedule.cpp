// Scheduling: lowered ops -> execute packets (paper Fig. 1, "further
// transformations": parallelisation, unit assignment).
//
// A greedy in-order packetizer: each op is placed in the earliest issue
// slot (>= the previous op's slot) where its operands are available, the
// required functional-unit kind has a free instance, and memory/volatile
// ordering holds. Because the V6X has no interlocks, the packer is fully
// responsible for result latencies (loads +4, multiplies +1). Runs of
// empty slots are compressed into multi-cycle NOPs afterwards. A
// terminating branch is followed by five empty slots. A cache-routine
// call is predicated on its lookup's failed MRU compare (lower.cpp):
// taken or not, its delay slots are kept empty, and the return address
// is the packet that follows them, where the not-taken path also goes
// on. The packer treats every value the routine may clobber as
// produced at that packet.
#include <algorithm>

#include "common/error.h"
#include "xlat/internal.h"
#include "xlat/regmap.h"

namespace cabt::xlat {
namespace {

using vliw::kNoReg;
using vliw::MachineOp;
using vliw::Packet;
using vliw::UnitKind;
using vliw::VOpc;

/// Extra result-latency slots beyond the default one cycle.
unsigned extraSlots(VOpc opc) {
  if (vliw::isLoad(opc)) {
    return 4;
  }
  if (opc == VOpc::kMpy) {
    return 1;
  }
  return 0;
}

bool readsDst(VOpc opc) {
  return opc == VOpc::kAddk || opc == VOpc::kMvkh;
}

bool isControl(VOpc opc) {
  return vliw::isBranch(opc) || opc == VOpc::kHalt || opc == VOpc::kYield;
}

/// Working state of one in-construction packet.
struct Slot {
  std::vector<MachineOp> ops;
  std::vector<size_t> x_index;  ///< originating XOp index per op
  unsigned units_used = 0;      ///< bitmask over unit ids
  uint64_t dst_written = 0;     ///< registers written by ops in this packet
  bool has_control = false;
};

class Packer {
 public:
  explicit Packer(const std::vector<XOp>& ops) : ops_(ops) {}

  ScheduledBlock run() {
    for (size_t i = 0; i < ops_.size(); ++i) {
      place(i);
    }
    // Drain: a block may be entered from anywhere, so every in-flight
    // write must have committed before the next block's first slot. For
    // branch-terminated blocks the five delay slots already guarantee
    // this (nothing can issue after the branch, so every write is due at
    // most branch_slot + 5 < branch_slot + 6); fall-through blocks are
    // padded with empty slots up to the latest commit.
    size_t max_due = 0;
    for (const size_t due : last_due_) {
      max_due = std::max(max_due, due);
    }
    if (max_due > slots_.size()) {
      ensureSlot(max_due - 1);
    }
    return compress();
  }

 private:
  void ensureSlot(size_t s) {
    while (slots_.size() <= s) {
      slots_.emplace_back();
    }
  }

  /// Registers read by an op (including predicate and read-modify dst).
  void forEachRead(const MachineOp& op, auto&& fn) const {
    if (op.src1 != kNoReg) {
      fn(op.src1);
    }
    if (op.src2 != kNoReg) {
      fn(op.src2);
    }
    if (!op.pred.always()) {
      fn(op.pred.regId());
    }
    if ((readsDst(op.opc) || vliw::isStore(op.opc)) && op.dst != kNoReg) {
      fn(op.dst);
    }
  }

  [[nodiscard]] bool writesDst(const MachineOp& op) const {
    return op.dst != kNoReg && !vliw::isStore(op.opc) &&
           op.opc != VOpc::kB && op.opc != VOpc::kNop &&
           op.opc != VOpc::kHalt && op.opc != VOpc::kYield;
  }

  /// Picks a free unit for the op in slot `s`, or returns false.
  bool pickUnit(const MachineOp& op, Slot& slot, vliw::Unit* unit) const {
    const auto tryUnit = [&](UnitKind kind, uint8_t side) {
      if (!vliw::unitAllowed(op.opc, kind)) {
        return false;
      }
      const vliw::Unit u{kind, side};
      if ((slot.units_used & (1u << u.id())) != 0) {
        return false;
      }
      *unit = u;
      return true;
    };
    if (vliw::isMem(op.opc)) {
      // D unit on the base register's side.
      return tryUnit(UnitKind::kD, vliw::isFileB(op.src1) ? 1 : 0);
    }
    for (const UnitKind kind :
         {UnitKind::kL, UnitKind::kS, UnitKind::kM, UnitKind::kD}) {
      // Prefer the side of the destination file to spread pressure.
      const uint8_t preferred =
          op.dst != kNoReg && op.dst != 0xff && vliw::isFileB(op.dst) ? 1 : 0;
      if (tryUnit(kind, preferred) || tryUnit(kind, 1 - preferred)) {
        return true;
      }
    }
    return false;
  }

  void place(size_t index) {
    const XOp& x = ops_[index];
    const MachineOp& op = x.op;

    size_t earliest = prev_slot_;
    forEachRead(op, [&](uint8_t r) {
      earliest = std::max(earliest, ready_[r]);
    });
    if (writesDst(op)) {
      // Keep commit times per register strictly increasing (the machine
      // traps two writebacks to one register in the same cycle).
      const unsigned extra = extraSlots(op.opc);
      if (last_due_[op.dst] > extra) {
        earliest = std::max(earliest, last_due_[op.dst] - extra);
      }
    }
    if (vliw::isMem(op.opc)) {
      earliest = std::max(earliest, mem_barrier_);
    }
    if (x.volatile_mem) {
      earliest = std::max(earliest, volatile_barrier_);
    }

    size_t s = earliest;
    vliw::Unit unit;
    for (;; ++s) {
      ensureSlot(s);
      Slot& slot = slots_[s];
      if (slot.ops.size() >= 8) {
        continue;
      }
      if (isControl(op.opc) && slot.has_control) {
        continue;
      }
      // Two writes to one register in a single execute packet are illegal
      // (even with different commit latencies).
      if (writesDst(op) && (slot.dst_written & (uint64_t{1} << op.dst)) != 0) {
        continue;
      }
      if (op.opc == VOpc::kNop) {
        break;  // never generated by lowering; defensive
      }
      if (pickUnit(op, slot, &unit)) {
        break;
      }
    }

    Slot& slot = slots_[s];
    MachineOp placed = op;
    placed.unit = unit;
    slot.ops.push_back(placed);
    slot.x_index.push_back(index);
    slot.units_used |= 1u << unit.id();
    slot.has_control = slot.has_control || isControl(op.opc);
    if (writesDst(op)) {
      slot.dst_written |= uint64_t{1} << op.dst;
    }

    if (writesDst(op)) {
      const size_t due = s + 1 + extraSlots(op.opc);
      ready_[op.dst] = due;
      last_due_[op.dst] = due;
    }
    if (vliw::isMem(op.opc)) {
      mem_barrier_ = s + 1;
    }
    if (x.volatile_mem) {
      volatile_barrier_ = s + 1;
    }
    prev_slot_ = s;

    if (vliw::isBranch(op.opc)) {
      // Five delay slots after any branch.
      ensureSlot(s + 5);
      if (x.is_call) {
        // The cache routine returns to the packet after the delay slots;
        // it clobbers the temporaries, the scratch predicates and the
        // correction register relative to our static tracking.
        const size_t ret = s + 6;
        ensureSlot(ret);
        labels_.push_back(ret);
        call_returns_slots_.push_back(ret);
        prev_slot_ = ret;
        mem_barrier_ = std::max(mem_barrier_, ret);
        volatile_barrier_ = std::max(volatile_barrier_, ret);
        for (int i = 0; i < 9; ++i) {
          ready_[kTempPool[i]] = ret;
          last_due_[kTempPool[i]] = ret;
        }
        for (const uint8_t r : {vliw::regA(2), vliw::regB(0), kCorrReg}) {
          ready_[r] = ret;
          last_due_[r] = ret;
        }
      } else {
        prev_slot_ = s;  // terminator: nothing may follow anyway
      }
    }
  }

  /// Compresses empty slots into NOP packets and resolves fixup/return
  /// locations to final packet indices.
  ScheduledBlock compress() {
    // A NOP run must break at label slots (call-return targets).
    std::sort(labels_.begin(), labels_.end());

    ScheduledBlock out;
    std::vector<size_t> slot_to_packet(slots_.size() + 1, SIZE_MAX);
    size_t s = 0;
    while (s < slots_.size()) {
      if (!slots_[s].ops.empty()) {
        slot_to_packet[s] = out.packets.size();
        Packet p;
        p.ops = slots_[s].ops;
        for (size_t k = 0; k < slots_[s].x_index.size(); ++k) {
          const XOp& x = ops_[slots_[s].x_index[k]];
          if (x.fixup != XOp::Fixup::kNone) {
            out.fixups.push_back(
                {out.packets.size(), k, x.fixup, x.fixup_data});
          }
        }
        out.packets.push_back(std::move(p));
        ++s;
        continue;
      }
      // Start of an empty run: extend to the next non-empty slot or label.
      size_t end = s;
      while (end < slots_.size() && slots_[end].ops.empty() &&
             !(end != s &&
               std::binary_search(labels_.begin(), labels_.end(), end))) {
        ++end;
      }
      size_t run = end - s;
      slot_to_packet[s] = out.packets.size();
      while (run > 0) {
        const size_t chunk = std::min<size_t>(run, 9);
        Packet p;
        MachineOp nop;
        nop.opc = VOpc::kNop;
        nop.imm = static_cast<int32_t>(chunk);
        p.ops.push_back(nop);
        out.packets.push_back(std::move(p));
        run -= chunk;
      }
      s = end;
    }
    // A return label right past the end becomes the next block's first
    // packet: record it as one-past-the-end.
    slot_to_packet[slots_.size()] = out.packets.size();

    for (const size_t ret_slot : call_returns_slots_) {
      CABT_ASSERT(ret_slot < slot_to_packet.size() &&
                      slot_to_packet[ret_slot] != SIZE_MAX,
                  "call return slot did not map to a packet");
      out.call_returns.push_back(slot_to_packet[ret_slot]);
    }
    return out;
  }

  const std::vector<XOp>& ops_;
  std::vector<Slot> slots_;
  std::array<size_t, 64> ready_{};
  std::array<size_t, 64> last_due_{};
  size_t mem_barrier_ = 0;
  size_t volatile_barrier_ = 0;
  size_t prev_slot_ = 0;
  std::vector<size_t> labels_;
  std::vector<size_t> call_returns_slots_;
};

}  // namespace

ScheduledBlock scheduleBlock(const std::vector<XOp>& ops) {
  return Packer(ops).run();
}

}  // namespace cabt::xlat
