// Cycle-accurate V6X simulator.
//
// Models the VLIW target exactly as the translator's scheduler assumes it:
// one execute packet per cycle, no interlocks (ALU results next cycle,
// multiply +1, loads +4, branches redirect after 5 delay slots), reads see
// the committed register state of the current cycle, predicated ops read
// their condition register in the same cycle. Memory-mapped hardware
// (synchronization device, bus bridge) is plugged in via IoHandler; a
// handler can refuse an access, which stalls the whole machine until the
// cycle the handler names (this is how "wait for end of cycle generation"
// behaves).
//
// The per-cycle path works on a form predecoded at loadProgram (DESIGN.md
// section 15): validated packets sit in a dense array and sequential flow
// follows each packet's next index, so only an indirect branch or setPc
// looks an address up; every op carries its predicate register, operand
// slots and memory width; in-flight register writes live in a ring
// indexed by the issue slot they are due in. Nothing on that path
// allocates, and nothing on it runs once per cycle for the hardware
// outside, a wait included: the clocked hardware (setClock) hears the
// elapsed cycle count only before an I/O access and at a stop, a
// multi-cycle NOP's idle tail passes in one step, and so does a device
// stall. An issue costs only what its packet holds: the memory ops that
// run are resolved once, and nothing is cleared per issue.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/sparse_mem.h"
#include "elf/elf.h"
#include "vliw/isa.h"

namespace cabt::vliw {

/// Memory-mapped hardware hook covering the fixed address window
/// [base, base + size), declared once at construction so the simulator can
/// reject every other address (RAM) with one bounding-box compare.
///
/// refusedCycles() is asked about an access attempted in the current
/// cycle, after the clocked hardware has run that cycle. It returns how
/// many consecutive cycles the handler refuses the access, the current
/// one included; 0 means the access completes now. The simulator charges
/// the refused cycles as stall cycles in one step and asks again only at
/// the first cycle after them. So the count must not exceed the cycles
/// the handler would refuse one by one (fewer is safe: the retry is
/// refused again), and no answer may depend on being asked in the cycles
/// in between. load()/store() are called exactly once, in the cycle the
/// access completes.
class IoHandler {
 public:
  IoHandler(uint32_t base, uint32_t size) : base_(base), size_(size) {}
  virtual ~IoHandler() = default;

  [[nodiscard]] uint32_t base() const { return base_; }
  [[nodiscard]] uint32_t size() const { return size_; }
  [[nodiscard]] bool covers(uint32_t addr) const {
    return addr - base_ < size_;
  }

  virtual uint64_t refusedCycles(uint32_t addr, bool is_write) = 0;
  virtual uint32_t load(uint32_t addr, unsigned size) = 0;
  virtual void store(uint32_t addr, uint32_t value, unsigned size) = 0;

 private:
  uint32_t base_;
  uint32_t size_;
};

enum class RunState {
  kRunning,
  kHalted,
  kYielded,     ///< YIELD executed; resumable
  kBreakpoint,  ///< stopped before a breakpointed packet; resumable
  kMaxCycles,
};

struct SimStats {
  uint64_t cycles = 0;        ///< wall cycles including stalls
  uint64_t issue_cycles = 0;  ///< packet-issue slots (incl. NOP padding)
  uint64_t packets = 0;
  uint64_t ops = 0;           ///< machine ops issued (predicated-false incl.)
  uint64_t nop_cycles = 0;
  uint64_t stall_cycles = 0;
  uint64_t branches_taken = 0;
};

class V6xSim {
 public:
  V6xSim();

  /// Loads a V6X ELF image: .text is decoded (and validated) into execute
  /// packets, all other PROGBITS sections are copied to memory.
  void loadProgram(const elf::Object& image);

  /// Registers a memory-mapped hardware window (not owned). The first
  /// registered handler covering an address serves it.
  void addIoHandler(IoHandler* handler);

  /// Connects the hardware clocked by this machine (the platform's
  /// synchronization device). `clock(cycles)` receives the elapsed wall
  /// cycle count, stats().cycles, at two points only: before any I/O
  /// handler call — the count then includes the current cycle, so the
  /// hardware has run it before the access's readiness check — and before
  /// every return from run()/resume(). Between those points nothing
  /// outside the machine can observe time, so the hardware catches up in
  /// one step. A refused access therefore reports the cycle it was
  /// refused in and the cycle it is retried in, none in between. A
  /// breakpoint stop runs no cycle and so reports none.
  void setClock(std::function<void(uint64_t)> clock) {
    clock_ = std::move(clock);
  }

  /// Runs until HALT / YIELD / breakpoint / cycle limit. Every stop
  /// commits the writes due in the current slot (all of them at halt) and
  /// reports the elapsed cycles to the clock.
  RunState run(uint64_t max_cycles = UINT64_MAX);

  /// Resumes over a breakpoint: the breakpointed packet is not checked
  /// again until it issues, so a packet that stalls first stops once.
  RunState resume(uint64_t max_cycles = UINT64_MAX);

  void addBreakpoint(uint32_t addr) { breakpoints_.insert(addr); }
  void removeBreakpoint(uint32_t addr) { breakpoints_.erase(addr); }

  [[nodiscard]] uint32_t reg(uint8_t r) const;
  void setReg(uint8_t r, uint32_t v);
  [[nodiscard]] uint32_t pc() const { return pc_; }
  void setPc(uint32_t pc);
  [[nodiscard]] RunState state() const { return state_; }

  [[nodiscard]] SparseMemory& memory() { return mem_; }
  [[nodiscard]] const SparseMemory& memory() const { return mem_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Packet>& packets() const { return packets_; }

 private:
  static constexpr int kNumRegs = 2 * kRegsPerFile;
  /// Register slot that always reads 0; absent operands and the predicate
  /// of an unpredicated op point here.
  static constexpr uint8_t kZeroSlot = kNumRegs;
  static constexpr uint32_t kNoPacket = UINT32_MAX;
  static constexpr size_t kMaxPacketOps = 8;
  /// Pending-write ring size: a power of two above the longest latency
  /// (a load is due 5 slots after issue).
  static constexpr size_t kWriteRing = 8;

  /// A MachineOp with every per-cycle table query answered at load.
  struct DecodedOp {
    VOpc opc = VOpc::kInvalid;
    uint8_t pred = kZeroSlot;  ///< register slot of the condition
    bool pred_z = true;        ///< executes when that slot reads zero
    uint8_t dst = kZeroSlot;   ///< for stores: the data register
    uint8_t src1 = kZeroSlot;
    uint8_t src2 = kZeroSlot;
    uint8_t mem_size = 0;  ///< access width in bytes; 0 = not a memory op
    bool store = false;
    bool sign_extend = false;  ///< kLdh / kLdb
    int32_t imm = 0;
    uint32_t target = kNoPacket;  ///< kB: index of the target packet
  };

  struct DecodedPacket {
    uint32_t addr = 0;
    uint32_t first_op = 0;  ///< index into ops_
    uint8_t num_ops = 0;
    bool has_mem = false;
    uint32_t next = kNoPacket;  ///< packet at addr + size, if any
  };

  /// The writes due in one issue slot, at most one per register (a
  /// second is a scheduling error the simulator reports).
  struct WriteSlot {
    uint64_t regs = 0;  ///< bit r set: value[r] is pending
    std::array<uint32_t, kNumRegs> value{};
  };

  /// A memory op of the packet being issued, resolved by the readiness
  /// pass: its effective address and handler (nullptr for RAM).
  struct Access {
    uint32_t ea = 0;
    IoHandler* handler = nullptr;
  };

  [[nodiscard]] uint32_t packetIndex(uint32_t addr) const;
  [[nodiscard]] const DecodedPacket& fetch() const;
  [[nodiscard]] IoHandler* handlerFor(uint32_t addr) const;
  /// Commits the writes due in issue slot `slot`.
  void commitWrites(uint64_t slot);
  void commitDueWrites() { commitWrites(stats_.issue_cycles); }
  void drainPipeline();
  void scheduleWrite(uint8_t reg, uint32_t value, unsigned extra_slots);
  /// Issues the packet and returns 0, or returns the cycles a device
  /// refuses one of its accesses (IoHandler::refusedCycles) without
  /// issuing: a refusal has no side effect beyond the clock report and
  /// the handlers' queries.
  uint64_t issuePacket(const DecodedPacket& packet);
  void postIssueSlot();
  /// Runs `k` (<= idle_cycles_) idle tail cycles of a multi-cycle NOP in
  /// one step: the cycle and slot counts, the writes due in those slots
  /// in due order, and the branch countdown with its redirect.
  void skipIdleSlots(uint64_t k);
  /// The cycle loop of run(); returns the stop without draining.
  RunState runCycles(uint64_t max_cycles);

  std::vector<Packet> packets_;
  std::vector<DecodedPacket> decoded_;  ///< parallel to packets_
  std::vector<DecodedOp> ops_;
  std::map<uint32_t, uint32_t> packet_at_;  ///< address -> packet index
  std::vector<IoHandler*> handlers_;
  uint64_t io_lo_ = UINT64_MAX;  ///< bounding box of all handler windows
  uint64_t io_hi_ = 0;
  std::function<void(uint64_t)> clock_;
  SparseMemory mem_;

  std::array<uint32_t, kNumRegs + 1> regs_{};  ///< + the zero slot
  uint32_t pc_ = 0;
  uint32_t cur_ = kNoPacket;  ///< packet at pc_, or kNoPacket
  RunState state_ = RunState::kRunning;

  std::array<WriteSlot, kWriteRing> writes_{};  ///< by due slot % size
  /// The running memory ops of the packet being issued, in op order;
  /// execution takes them back in that order. An issue reads only the
  /// entries it wrote, so nothing is cleared between issues.
  std::array<Access, kMaxPacketOps> access_{};
  bool branch_pending_ = false;
  uint32_t branch_target_ = 0;
  uint32_t branch_target_index_ = kNoPacket;
  unsigned branch_remaining_ = 0;
  unsigned idle_cycles_ = 0;  ///< remaining cycles of a multi-cycle NOP

  std::set<uint32_t> breakpoints_;
  bool step_over_breakpoint_ = false;

  SimStats stats_;
};

}  // namespace cabt::vliw
