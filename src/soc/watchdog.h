// Watchdog peripheral: expires when the guest stops petting it (DESIGN.md
// section 12.3).
//
// Register window (word access):
//   0x0 LOAD  (rw) timeout in SoC cycles (>= 1 to arm)
//   0x4 PET   (w)  re-arm the deadline LOAD cycles from now while enabled
//               (r)  cycles until the deadline (0 when idle/expired)
//   0x8 CTRL  (rw) bit0 = enable; arming sets the deadline LOAD cycles out
//   0xc FIRED (r)  total expiries since reset
//
// Like ProgrammableTimer the deadline check is arithmetic over the
// lazily advanced SoC clock, so firing is a pure function of transaction
// timestamps — bit-identical across both ISS engines.
// A fired watchdog is one-shot (disarms itself) and raises its interrupt
// line. The host side reads the FIRED count: snap::Recorder compares it
// across each run chunk and treats a chunk in which it rose as a hang to
// recover from. LOAD/enable/deadline/fired counts are architectural and
// serialized; the IRQ routing is construction-time wiring.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.h"
#include "soc/interrupts.h"

namespace cabt::soc {

class WatchdogDevice : public Device {
 public:
  static constexpr uint32_t kLoadOffset = 0x0;
  static constexpr uint32_t kPetOffset = 0x4;
  static constexpr uint32_t kCtrlOffset = 0x8;
  static constexpr uint32_t kFiredOffset = 0xc;
  static constexpr uint32_t kWindowSize = 0x10;

  explicit WatchdogDevice(std::string name = "watchdog")
      : Device(std::move(name)) {}

  /// Routes expiries to `intc` line `line`.
  void setIrqTarget(InterruptController* intc, unsigned line) {
    intc_ = intc;
    line_ = line;
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] uint64_t fired() const { return fired_; }

  // -- Device -----------------------------------------------------------
  uint32_t read(uint32_t offset, unsigned size, uint64_t soc_cycle) override {
    CABT_CHECK(size == 4, "watchdog supports word access only");
    switch (offset) {
      case kLoadOffset:
        return load_;
      case kPetOffset:
        return enabled_ && deadline_ > soc_cycle
                   ? static_cast<uint32_t>(deadline_ - soc_cycle)
                   : 0;
      case kCtrlOffset:
        return enabled_ ? 1u : 0u;
      case kFiredOffset:
        return static_cast<uint32_t>(fired_);
      default:
        CABT_FAIL("watchdog read at bad offset " << offset);
    }
  }

  void write(uint32_t offset, uint32_t value, unsigned size,
             uint64_t soc_cycle) override {
    CABT_CHECK(size == 4, "watchdog supports word access only");
    switch (offset) {
      case kLoadOffset:
        load_ = value;
        break;
      case kPetOffset:
        if (enabled_) {
          deadline_ = soc_cycle + load_;
        }
        break;
      case kCtrlOffset:
        enabled_ = (value & 1u) != 0;
        if (enabled_) {
          CABT_CHECK(load_ >= 1, "watchdog armed with LOAD = 0");
          deadline_ = soc_cycle + load_;
        }
        break;
      default:
        CABT_FAIL("watchdog write at bad offset " << offset);
    }
  }

  void advanceTo(uint64_t, uint64_t to) override {
    if (enabled_ && deadline_ <= to) {
      ++fired_;
      enabled_ = false;  // one-shot: a reset re-arms it
      if (intc_ != nullptr) {
        intc_->raise(line_);
      }
    }
  }

  [[nodiscard]] uint64_t nextEvent() const override {
    return enabled_ ? deadline_ : kNoEvent;
  }

  void saveState(serial::Writer& w) const override {
    w.u32(load_);
    w.b(enabled_);
    w.u64(deadline_);
    w.u64(fired_);
  }
  void restoreState(serial::Reader& r) override {
    load_ = r.u32();
    enabled_ = r.b();
    deadline_ = r.u64();
    fired_ = r.u64();
  }

 private:
  InterruptController* intc_ = nullptr;
  unsigned line_ = 0;
  uint32_t load_ = 0;
  bool enabled_ = false;
  uint64_t deadline_ = 0;
  uint64_t fired_ = 0;
};

}  // namespace cabt::soc
