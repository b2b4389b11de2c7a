#include "vliw/sim.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"
#include "common/strutil.h"

namespace cabt::vliw {

V6xSim::V6xSim() = default;

void V6xSim::loadProgram(const elf::Object& image) {
  CABT_CHECK(image.machine == elf::Machine::kV6x,
             "not a V6X image (wrong e_machine)");
  packets_.clear();
  decoded_.clear();
  ops_.clear();
  packet_at_.clear();
  bool any_code = false;
  for (const elf::Section& s : image.sections) {
    if (s.executable && s.kind == elf::SectionKind::kProgbits) {
      any_code = true;
      for (Packet& p : decodeProgram(s.data, s.addr)) {
        packets_.push_back(std::move(p));
      }
    } else if (s.kind == elf::SectionKind::kProgbits) {
      mem_.writeBlock(s.addr, s.data.data(), s.data.size());
    }
  }
  CABT_CHECK(any_code, "V6X image has no executable section");
  CABT_CHECK(packets_.size() < kNoPacket, "too many V6X packets");
  for (size_t i = 0; i < packets_.size(); ++i) {
    packet_at_.emplace(packets_[i].addr, static_cast<uint32_t>(i));
  }

  // Predecode. decodeProgram validated every packet, so none has more
  // than kMaxPacketOps ops.
  const auto slot = [](uint8_t reg) {
    return reg == kNoReg ? kZeroSlot : reg;
  };
  for (const Packet& p : packets_) {
    DecodedPacket d;
    d.addr = p.addr;
    d.first_op = static_cast<uint32_t>(ops_.size());
    d.num_ops = static_cast<uint8_t>(p.ops.size());
    d.next = packetIndex(p.addr + p.sizeBytes());
    for (const MachineOp& m : p.ops) {
      DecodedOp o;
      o.opc = m.opc;
      if (!m.pred.always()) {
        o.pred = m.pred.regId();
        o.pred_z = m.pred.z;
      }
      o.dst = slot(m.dst);
      o.src1 = slot(m.src1);
      o.src2 = slot(m.src2);
      o.imm = m.imm;
      if (isMem(m.opc)) {
        o.mem_size = static_cast<uint8_t>(memAccessSize(m.opc));
        o.store = isStore(m.opc);
        o.sign_extend = m.opc == VOpc::kLdh || m.opc == VOpc::kLdb;
        d.has_mem = true;
      }
      if (m.opc == VOpc::kB) {
        o.target = packetIndex(static_cast<uint32_t>(m.imm));
      }
      ops_.push_back(o);
    }
    decoded_.push_back(d);
  }
  pc_ = image.entry;
  cur_ = packetIndex(pc_);
  state_ = RunState::kRunning;
}

void V6xSim::addIoHandler(IoHandler* handler) {
  CABT_CHECK(handler != nullptr, "null IoHandler");
  CABT_CHECK(handler->size() >= 1, "empty IoHandler window");
  handlers_.push_back(handler);
  io_lo_ = std::min(io_lo_, static_cast<uint64_t>(handler->base()));
  io_hi_ = std::max(io_hi_, static_cast<uint64_t>(handler->base()) +
                                handler->size());
}

uint32_t V6xSim::reg(uint8_t r) const {
  CABT_CHECK(r < kNumRegs, "bad V6X register id " << int{r});
  return regs_[r];
}

void V6xSim::setReg(uint8_t r, uint32_t v) {
  CABT_CHECK(r < kNumRegs, "bad V6X register id " << int{r});
  regs_[r] = v;
}

void V6xSim::setPc(uint32_t pc) {
  const uint32_t index = packetIndex(pc);
  CABT_CHECK(index != kNoPacket,
             "PC " << hex32(pc) << " is not a packet start");
  pc_ = pc;
  cur_ = index;
  // A debugger PC change abandons in-flight control state.
  branch_pending_ = false;
  idle_cycles_ = 0;
}

uint32_t V6xSim::packetIndex(uint32_t addr) const {
  const auto it = packet_at_.find(addr);
  return it == packet_at_.end() ? kNoPacket : it->second;
}

const V6xSim::DecodedPacket& V6xSim::fetch() const {
  CABT_CHECK(cur_ != kNoPacket,
             "fetch from " << hex32(pc_) << ": not a packet start");
  return decoded_[cur_];
}

IoHandler* V6xSim::handlerFor(uint32_t addr) const {
  if (addr < io_lo_ || addr >= io_hi_) {
    return nullptr;
  }
  for (IoHandler* h : handlers_) {
    if (h->covers(addr)) {
      return h;
    }
  }
  return nullptr;
}

void V6xSim::commitWrites(uint64_t slot) {
  // run() commits every slot value before issue_cycles moves past it, so
  // the ring entry holds only writes due in exactly this slot.
  WriteSlot& s = writes_[slot % kWriteRing];
  for (uint64_t m = s.regs; m != 0; m &= m - 1) {
    const int r = std::countr_zero(m);
    regs_[r] = s.value[r];
  }
  s.regs = 0;
}

void V6xSim::drainPipeline() {
  // Architecturally-due writes commit lazily; flush them so a stopped
  // machine presents a consistent register state. At halt everything in
  // flight lands as well, in due order.
  commitDueWrites();
  if (state_ == RunState::kHalted) {
    for (uint64_t k = 1; k < kWriteRing; ++k) {
      commitWrites(stats_.issue_cycles + k);
    }
  }
}

void V6xSim::scheduleWrite(uint8_t reg, uint32_t value,
                           unsigned extra_slots) {
  // Live writes are due within [issue_cycles, issue_cycles + 5], so the
  // ring never holds two different due slots in one entry.
  WriteSlot& s =
      writes_[(stats_.issue_cycles + 1 + extra_slots) % kWriteRing];
  const uint64_t bit = uint64_t{1} << reg;
  CABT_CHECK((s.regs & bit) == 0,
             "two in-flight writes to " << regName(reg)
                                        << " commit in the same cycle");
  s.regs |= bit;
  s.value[reg] = value;
}

uint64_t V6xSim::issuePacket(const DecodedPacket& packet) {
  const DecodedOp* const ops = &ops_[packet.first_op];
  const auto runs = [this](const DecodedOp& op) {
    return (regs_[op.pred] == 0) == op.pred_z;
  };

  // Device readiness first: a refused access stalls the whole packet.
  // Only the memory ops that run are resolved, in op order, and
  // execution takes them back in the same order: no register changes in
  // between, so both passes agree on which ops run.
  if (packet.has_mem) {
    Access* resolved = access_.data();
    for (unsigned i = 0; i < packet.num_ops; ++i) {
      const DecodedOp& op = ops[i];
      if (op.mem_size == 0 || !runs(op)) {
        continue;
      }
      const uint32_t ea = regs_[op.src1] + static_cast<uint32_t>(op.imm);
      IoHandler* h = handlerFor(ea);
      if (h != nullptr) {
        if (clock_) {
          clock_(stats_.cycles);  // this cycle's generation comes first
        }
        if (const uint64_t refused = h->refusedCycles(ea, op.store);
            refused != 0) {
          return refused;
        }
      }
      *resolved++ = {ea, h};
    }
  }
  const Access* next_access = access_.data();

  ++stats_.packets;
  stats_.ops += packet.num_ops;
  // Register writes are deferred to later slots, so every op reads the
  // register state as of the start of this cycle.
  for (unsigned i = 0; i < packet.num_ops; ++i) {
    const DecodedOp& op = ops[i];
    if (!runs(op)) {
      continue;
    }
    const uint32_t s1 = regs_[op.src1];
    const uint32_t s2 = regs_[op.src2];
    const uint32_t dstv = regs_[op.dst];
    const auto aluResult = [&](uint32_t v) { scheduleWrite(op.dst, v, 0); };
    switch (op.opc) {
      case VOpc::kAdd:
        aluResult(s1 + s2);
        break;
      case VOpc::kSub:
        aluResult(s1 - s2);
        break;
      case VOpc::kAnd:
        aluResult(s1 & s2);
        break;
      case VOpc::kOr:
        aluResult(s1 | s2);
        break;
      case VOpc::kXor:
        aluResult(s1 ^ s2);
        break;
      case VOpc::kCmpEq:
        aluResult(s1 == s2 ? 1 : 0);
        break;
      case VOpc::kCmpNe:
        aluResult(s1 != s2 ? 1 : 0);
        break;
      case VOpc::kCmpLt:
        aluResult(static_cast<int32_t>(s1) < static_cast<int32_t>(s2) ? 1
                                                                      : 0);
        break;
      case VOpc::kCmpLtu:
        aluResult(s1 < s2 ? 1 : 0);
        break;
      case VOpc::kCmpGt:
        aluResult(static_cast<int32_t>(s1) > static_cast<int32_t>(s2) ? 1
                                                                      : 0);
        break;
      case VOpc::kCmpGtu:
        aluResult(s1 > s2 ? 1 : 0);
        break;
      case VOpc::kCmpGe:
        aluResult(static_cast<int32_t>(s1) >= static_cast<int32_t>(s2) ? 1
                                                                       : 0);
        break;
      case VOpc::kCmpGeu:
        aluResult(s1 >= s2 ? 1 : 0);
        break;
      case VOpc::kMv:
        aluResult(s1);
        break;
      case VOpc::kShl:
        aluResult(s1 << (s2 & 31));
        break;
      case VOpc::kShr:
        aluResult(s1 >> (s2 & 31));
        break;
      case VOpc::kSar:
        aluResult(static_cast<uint32_t>(static_cast<int32_t>(s1) >>
                                        (s2 & 31)));
        break;
      case VOpc::kMpy:
        scheduleWrite(op.dst, s1 * s2, 1);
        break;
      case VOpc::kLdw:
      case VOpc::kLdh:
      case VOpc::kLdhu:
      case VOpc::kLdb:
      case VOpc::kLdbu: {
        const auto [ea, h] = *next_access++;
        uint32_t v = h != nullptr ? h->load(ea, op.mem_size)
                                  : mem_.read(ea, op.mem_size);
        if (op.sign_extend) {
          v = static_cast<uint32_t>(signExtend(v, op.mem_size * 8u));
        }
        scheduleWrite(op.dst, v, 4);
        break;
      }
      case VOpc::kStw:
      case VOpc::kSth:
      case VOpc::kStb: {
        const auto [ea, h] = *next_access++;
        if (h != nullptr) {
          h->store(ea, dstv, op.mem_size);
        } else {
          mem_.write(ea, dstv, op.mem_size);
        }
        break;
      }
      case VOpc::kB:
      case VOpc::kBr: {
        CABT_CHECK(!branch_pending_,
                   "branch issued while another branch is in flight");
        branch_pending_ = true;
        if (op.opc == VOpc::kB) {
          branch_target_ = static_cast<uint32_t>(op.imm);
          branch_target_index_ = op.target;
        } else {
          branch_target_ = s1;
          branch_target_index_ = packetIndex(s1);
        }
        branch_remaining_ = delaySlots(op.opc);
        ++stats_.branches_taken;
        break;
      }
      case VOpc::kMvk:
        scheduleWrite(op.dst, static_cast<uint32_t>(op.imm), 0);
        break;
      case VOpc::kMvkh:
        scheduleWrite(op.dst,
                      (dstv & 0xffffu) | (static_cast<uint32_t>(op.imm) << 16),
                      0);
        break;
      case VOpc::kAddk:
        scheduleWrite(op.dst, dstv + static_cast<uint32_t>(op.imm), 0);
        break;
      case VOpc::kNop:
        idle_cycles_ = static_cast<unsigned>(op.imm) - 1;
        stats_.nop_cycles += static_cast<unsigned>(op.imm);
        break;
      case VOpc::kHalt:
        state_ = RunState::kHalted;
        break;
      case VOpc::kYield:
        state_ = RunState::kYielded;
        break;
      default:
        CABT_FAIL("unhandled V6X opcode");
    }
  }
  pc_ = packet.addr + 4u * packet.num_ops;
  cur_ = packet.next;
  return 0;
}

void V6xSim::postIssueSlot() {
  ++stats_.issue_cycles;
  if (branch_pending_) {
    if (branch_remaining_ == 0) {
      pc_ = branch_target_;
      cur_ = branch_target_index_;
      branch_pending_ = false;
    } else {
      --branch_remaining_;
    }
  }
}

RunState V6xSim::resume(uint64_t max_cycles) {
  step_over_breakpoint_ = true;
  return run(max_cycles);
}

void V6xSim::skipIdleSlots(uint64_t k) {
  // Nothing issues in a NOP tail, so no write is scheduled: the pending
  // ones are due within the next 6 slots, and committing the first
  // min(k, ring) slots in order lands each exactly as the per-cycle path
  // would.
  const uint64_t first = stats_.issue_cycles;
  for (uint64_t j = 0; j < std::min<uint64_t>(k, kWriteRing); ++j) {
    commitWrites(first + j);
  }
  stats_.cycles += k;
  stats_.issue_cycles += k;
  idle_cycles_ -= static_cast<unsigned>(k);
  if (branch_pending_) {
    // Slot j (0-based) of the tail redirects when branch_remaining_ == j.
    if (branch_remaining_ < k) {
      pc_ = branch_target_;
      cur_ = branch_target_index_;
      branch_pending_ = false;
    } else {
      branch_remaining_ -= static_cast<unsigned>(k);
    }
  }
}

RunState V6xSim::run(uint64_t max_cycles) {
  CABT_CHECK(!packets_.empty(), "no program loaded");
  if (state_ == RunState::kYielded || state_ == RunState::kBreakpoint) {
    state_ = RunState::kRunning;
  }
  const RunState stop = runCycles(max_cycles);
  drainPipeline();
  if (clock_) {
    clock_(stats_.cycles);
  }
  return stop;
}

RunState V6xSim::runCycles(uint64_t max_cycles) {
  uint64_t budget = max_cycles;
  while (state_ == RunState::kRunning) {
    if (budget == 0) {
      return RunState::kMaxCycles;  // resumable: state_ stays kRunning
    }
    if (idle_cycles_ != 0) {
      // Tail cycles of a multi-cycle NOP: issue slots without a packet.
      const uint64_t k = std::min<uint64_t>(idle_cycles_, budget);
      skipIdleSlots(k);
      budget -= k;
      continue;
    }
    if (!breakpoints_.empty() && !step_over_breakpoint_ &&
        breakpoints_.count(pc_) != 0) {
      // Stop *before* issuing the breakpointed packet: no cycle runs.
      state_ = RunState::kBreakpoint;
      return state_;
    }
    --budget;
    ++stats_.cycles;
    // Commit the writes due in this issue slot before anything reads the
    // register state (including the device-readiness check).
    commitDueWrites();
    if (const uint64_t refused = issuePacket(fetch()); refused != 0) {
      // Whole-machine stall. A refused attempt moves only the cycle
      // counts (the issue slot, the write ring and the branch countdown
      // stay frozen) and readiness is a pure function of time, so the
      // whole refusal passes in one step, clipped to the budget, and the
      // packet retries at its end.
      const uint64_t more = std::min(refused - 1, budget);
      stats_.cycles += more;
      stats_.stall_cycles += 1 + more;
      budget -= more;
      continue;
    }
    // Cleared on issue, not on the attempt: a resumed packet that stalls
    // first does not stop again at its retry.
    step_over_breakpoint_ = false;
    postIssueSlot();
  }
  return state_;
}

}  // namespace cabt::vliw
