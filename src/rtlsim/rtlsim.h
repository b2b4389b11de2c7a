// RT-level model of the TRC32 core.
//
// Stands in for the paper's Table 2 baseline "Simulation (Workstation)":
// an RT-level simulation of the processor core. Unlike the reference ISS
// (which accounts time per basic block), this model is *cycle driven*: it
// evaluates the pipeline state machine every clock cycle — fetch/issue
// decision, dual-issue pairing, operand scoreboard, branch redirect
// penalty and instruction-cache miss waits — and it records every signal
// update through a waveform trace sink, which is where an HDL simulator
// spends its time. The micro-architectural rules are the architecture
// description's, so the cycle count must match the reference ISS exactly
// (a test asserts this); only the simulation *speed* differs by orders of
// magnitude, which is precisely the trade-off Table 2 demonstrates.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "arch/arch.h"
#include "arch/icache_model.h"
#include "common/sparse_mem.h"
#include "elf/elf.h"
#include "trc/isa.h"

namespace cabt::rtlsim {

/// Bounded waveform ring buffer; every signal update lands here.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 1u << 20)
      : ring_(capacity, 0), capacity_(capacity) {}

  void record(uint64_t cycle, uint16_t signal, uint32_t value) {
    ring_[head_] = (cycle << 24) ^ (static_cast<uint64_t>(signal) << 40) ^
                   value;
    head_ = (head_ + 1) % capacity_;
    ++events_;
  }
  [[nodiscard]] uint64_t events() const { return events_; }

 private:
  std::vector<uint64_t> ring_;
  size_t capacity_;
  size_t head_ = 0;
  uint64_t events_ = 0;
};

struct RtlStats {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t issue_stall_cycles = 0;
  uint64_t branch_penalty_cycles = 0;
  uint64_t icache_wait_cycles = 0;
  uint64_t signal_events = 0;
  uint64_t dual_issues = 0;
};

class RtlCore {
 public:
  RtlCore(const arch::ArchDescription& desc, const elf::Object& object);

  /// Runs one clock cycle; returns false once halted.
  bool clockCycle();

  /// Runs until HALT or the cycle limit. The model only runs to halt, so
  /// BKPT is a no-op here (a plain issue slot): the ISS and the
  /// translated code stop at it and resume past it without an extra
  /// cycle, so their runs with every stop resumed count what this model
  /// counts.
  void run(uint64_t max_cycles = 2'000'000'000ull);

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] const RtlStats& stats() const { return stats_; }
  [[nodiscard]] uint32_t d(int i) const { return d_.at(i); }
  [[nodiscard]] uint32_t a(int i) const { return a_.at(i); }
  [[nodiscard]] const SparseMemory& memory() const { return mem_; }

 private:
  struct IssueSlot {
    const trc::Instr* instr = nullptr;
    bool ok = false;
  };

  [[nodiscard]] const trc::Instr* fetch(uint32_t addr) const;
  [[nodiscard]] bool operandsReady(const trc::Instr& instr) const;
  void executeInstr(const trc::Instr& instr, bool* redirected);
  void trace(uint16_t signal, uint32_t value) {
    trace_.record(stats_.cycles, signal, value);
    ++stats_.signal_events;
  }

  arch::ArchDescription desc_;
  std::vector<trc::Instr> decoded_;
  std::unordered_map<uint32_t, size_t> by_addr_;
  std::set<uint32_t> leaders_;
  SparseMemory mem_;
  TraceBuffer trace_;

  std::array<uint32_t, 16> d_{};
  std::array<uint32_t, 16> a_{};
  uint32_t pc_ = 0;
  bool halted_ = false;

  // Pipeline state machine.
  std::array<uint64_t, 32> ready_{};  ///< absolute cycle a register is usable
  unsigned branch_wait_ = 0;          ///< refill penalty countdown
  unsigned icache_wait_ = 0;          ///< miss penalty countdown
  bool needs_drain_ = true;           ///< pipeline drain pending (block entry)
  bool have_line_ = false;
  uint32_t last_line_ = 0;
  arch::ICacheState icache_{arch::ICacheModel{}};

  RtlStats stats_;
};

}  // namespace cabt::rtlsim
