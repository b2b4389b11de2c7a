// Watchdog peripheral: fires a board-reset signal when the guest stops
// petting it (DESIGN.md section 12).
//
// Register window (word access):
//   0x0 LOAD  (rw) timeout in SoC cycles (>= 1 to arm)
//   0x4 PET   (w)  re-arm the deadline LOAD cycles from now while enabled
//               (r)  cycles until the deadline (0 when idle/expired)
//   0x8 CTRL  (rw) bit0 = enable; arming sets the deadline LOAD cycles out
//   0xc FIRED (r)  total expiries since reset
//
// Like soc::ProgrammableTimer the deadline check is arithmetic over the
// lazily advanced SoC clock, so firing is a pure function of transaction
// timestamps — bit-identical across both ISS engines.
// A fired watchdog is one-shot (disarms itself): the guest-visible
// consequence is an interrupt line raise, the board-level consequence is
// the on-fire callback, which platform::ReferenceBoard uses to trigger
// recovery (reset to the newest intact snapshot-ring entry) between run
// chunks. LOAD/enable/deadline/fired counts are architectural and
// serialized; the IRQ routing and callback are construction-time wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/error.h"
#include "soc/interrupts.h"

namespace cabt::fi {

class WatchdogDevice : public soc::Device {
 public:
  static constexpr uint32_t kLoadOffset = 0x0;
  static constexpr uint32_t kPetOffset = 0x4;
  static constexpr uint32_t kCtrlOffset = 0x8;
  static constexpr uint32_t kFiredOffset = 0xc;
  static constexpr uint32_t kWindowSize = 0x10;

  explicit WatchdogDevice(std::string name = "watchdog")
      : soc::Device(std::move(name)) {}

  /// Routes expiries to `intc` line `line`.
  void setIrqTarget(soc::InterruptController* intc, unsigned line) {
    intc_ = intc;
    line_ = line;
  }
  /// Board-level fire hook (reset/recovery trigger). Runs on the
  /// sequential drain, inside a bus advance — keep it to flag-setting.
  void setOnFire(std::function<void(uint64_t)> fn) { on_fire_ = std::move(fn); }

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
      if (on_fire_) {
        on_fire_(deadline_);
      }
    }
  }

  [[nodiscard]] uint64_t nextEvent() const override {
    return enabled_ ? deadline_ : soc::kNoEvent;
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
  soc::InterruptController* intc_ = nullptr;
  unsigned line_ = 0;
  std::function<void(uint64_t)> on_fire_;
  uint32_t load_ = 0;
  bool enabled_ = false;
  uint64_t deadline_ = 0;
  uint64_t fired_ = 0;
};

}  // namespace cabt::fi
