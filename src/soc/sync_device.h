// The synchronization device (paper section 3.1).
//
// In the paper this device lives in the FPGAs next to the VLIW processor:
// a write with the predicted cycle count n of a basic block starts the
// generation of n SoC clock cycles for the attached hardware, which then
// runs in parallel with the execution of the translated block; a read
// from the status register waits until the generation has finished.
// A second write port adds dynamically computed correction cycles
// (branch prediction, instruction cache — paper section 3.4).
//
// Here the device drives the SocBus clock lazily (DESIGN.md section 5.1):
// generation is a pure function of elapsed VLIW time, so the device
// catches up in one step — a single SocBus::advanceTo over all the SoC
// cycles generated since the last catch-up — whenever the VLIW machine
// reports its time, which it does before every I/O handler call and at
// every stop (vliw::V6xSim::setClock). Nothing else can observe the
// attached hardware in between.
//
// The same arithmetic names the cycle a wait ends: cyclesToIdle() and
// cyclesToNextEdge() say how far generation is from its last edge and
// from its next one, so the VLIW machine can charge a whole sync-wait
// stall in one step. That is exact because advanceTo() is a pure
// function of elapsed cycles: one jump equals any split of it.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.h"
#include "soc/bus.h"

namespace cabt::soc {

class SyncDevice {
 public:
  /// Register offsets within the device window (VLIW address space).
  static constexpr uint32_t kStartOffset = 0x0;    ///< write: start n cycles
  static constexpr uint32_t kStatusOffset = 0x4;   ///< read: 0 when idle
  static constexpr uint32_t kCorrectOffset = 0x8;  ///< write: n extra cycles
  static constexpr uint32_t kTotalOffset = 0xc;    ///< read: cycles emitted
  static constexpr uint32_t kWindowSize = 0x10;

  /// `vliw_cycles_per_soc_cycle` is the generation rate: how many VLIW
  /// clock cycles one generated SoC cycle takes (>= 1).
  SyncDevice(SocBus* bus, unsigned vliw_cycles_per_soc_cycle)
      : bus_(bus), rate_(vliw_cycles_per_soc_cycle) {
    CABT_CHECK(bus_ != nullptr, "sync device needs a bus");
    CABT_CHECK(rate_ >= 1, "generation rate must be >= 1");
  }

  /// Starts generation of `n` further cycles (accumulates; the translated
  /// code's wait instruction is what enforces block-level synchrony).
  /// Generation counts from the VLIW cycle of the last advanceTo().
  void start(uint32_t n) {
    remaining_ += n;
    ++num_starts_;
  }

  /// Adds dynamically computed correction cycles.
  void correct(uint32_t n) {
    remaining_ += n;
    correction_total_ += n;
    ++num_corrections_;
  }

  /// Catches generation up to `vliw_cycles` elapsed VLIW cycles. While
  /// busy, every VLIW cycle is one generation tick and every `rate`-th
  /// tick emits an SoC cycle, so the step emits min(remaining, ticks /
  /// rate) cycles with one bus advance. Times at or before the last call
  /// are ignored.
  void advanceTo(uint64_t vliw_cycles) {
    if (vliw_cycles <= vliw_now_) {
      return;
    }
    const uint64_t from = vliw_now_;
    vliw_now_ = vliw_cycles;
    if (remaining_ == 0) {
      return;  // idle ticks emit nothing and leave the phase at 0
    }
    const uint64_t phase = subcycle_ + (vliw_cycles - from);
    const uint64_t n = std::min(remaining_, phase / rate_);
    if (n == 0) {
      subcycle_ = phase;
      return;
    }
    // The n-th edge falls on tick n*rate - subcycle_ after `from`.
    last_edge_ = from + n * rate_ - subcycle_;
    subcycle_ = n == remaining_ ? 0 : phase % rate_;
    remaining_ -= n;
    total_generated_ += n;
    bus_->advanceTo(bus_->socCycle() + n);
  }

  /// True when the latest VLIW cycle passed to advanceTo() emitted an SoC
  /// cycle: a bus access made in that cycle completes on its edge (the
  /// bridge's handshake in the emulated clock domain).
  [[nodiscard]] bool edgeThisCycle() const {
    return last_edge_ != 0 && last_edge_ == vliw_now_;
  }

  /// VLIW cycles from the latest advanceTo() time to the cycle of the
  /// last edge of the current generation: advancing by this many leaves
  /// the device idle, advancing by one less does not. 0 when idle. A
  /// status read made at that time waits this long.
  [[nodiscard]] uint64_t cyclesToIdle() const {
    return remaining_ * rate_ - subcycle_;
  }

  /// VLIW cycles from the latest advanceTo() time to the next edge:
  /// advancing by this many makes edgeThisCycle() true, advancing by one
  /// less does not. 0 when idle (no edge is coming).
  [[nodiscard]] uint64_t cyclesToNextEdge() const {
    return remaining_ == 0 ? 0 : rate_ - subcycle_;
  }

  [[nodiscard]] uint64_t totalGenerated() const { return total_generated_; }
  [[nodiscard]] uint64_t remaining() const { return remaining_; }
  [[nodiscard]] uint64_t numStarts() const { return num_starts_; }
  [[nodiscard]] uint64_t numCorrections() const { return num_corrections_; }
  [[nodiscard]] uint64_t correctionTotal() const { return correction_total_; }

 private:
  SocBus* bus_;
  uint64_t rate_;
  uint64_t subcycle_ = 0;   ///< ticks toward the next edge; 0 while idle
  uint64_t vliw_now_ = 0;   ///< VLIW cycles generation has caught up to
  uint64_t last_edge_ = 0;  ///< VLIW cycle count at the latest edge
  uint64_t remaining_ = 0;
  uint64_t total_generated_ = 0;
  uint64_t num_starts_ = 0;
  uint64_t num_corrections_ = 0;
  uint64_t correction_total_ = 0;
};

}  // namespace cabt::soc
