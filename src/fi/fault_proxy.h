// Device stall/timeout injection: a transparent soc::Device decorator.
//
// FaultProxy wraps an inner device and forwards everything verbatim —
// including name(), saveState() and restoreState(), so the snapshot bytes of
// a proxied board are identical to an unproxied one and the proxy's own
// harness state (stall window, counters) is never serialized or digested.
//
// An armed stall window models a hung bus interface: reads in
// [from, until) return stall_value without reaching the device, writes are
// dropped. The device's clock keeps advancing (clockCycle/advanceTo are
// always forwarded) — the device is alive, the guest just cannot talk to it.
// That is the shape needed for watchdog timeouts: stall the watchdog port
// and the guest's PET writes vanish while the deadline keeps counting.
//
// Determinism: device accesses happen only on the kernel's sequential drain
// (soc/bus.h threading contract) at bit-identical soc_cycle timestamps
// across both ISS engines and seq/par kernels, so the set of stalled
// accesses is identical too.
#pragma once

#include <cstdint>
#include <limits>

#include "soc/device.h"

namespace cabt::fi {

class FaultProxy : public soc::Device {
 public:
  explicit FaultProxy(soc::Device* inner)
      : soc::Device(inner->name()), inner_(inner) {}

  void armStall(uint64_t from, uint64_t until,
                uint32_t stall_value = 0) {
    from_ = from;
    until_ = until;
    stall_value_ = stall_value;
    armed_ = true;
  }
  void clearStall() { armed_ = false; }

  [[nodiscard]] bool stalledAt(uint64_t soc_cycle) const {
    return armed_ && soc_cycle >= from_ && soc_cycle < until_;
  }

  uint32_t read(uint32_t offset, unsigned size, uint64_t soc_cycle) override {
    if (stalledAt(soc_cycle)) {
      ++stalled_reads_;
      return stall_value_;
    }
    return inner_->read(offset, size, soc_cycle);
  }

  void write(uint32_t offset, uint32_t value, unsigned size,
             uint64_t soc_cycle) override {
    if (stalledAt(soc_cycle)) {
      ++stalled_writes_;
      return;
    }
    inner_->write(offset, value, size, soc_cycle);
  }

  void clockCycle(uint64_t soc_cycle) override { inner_->clockCycle(soc_cycle); }
  void advanceTo(uint64_t from, uint64_t to) override {
    inner_->advanceTo(from, to);
  }

  void saveState(serial::Writer& w) const override { inner_->saveState(w); }
  void restoreState(serial::Reader& r) override { inner_->restoreState(r); }

  [[nodiscard]] uint64_t stalledReads() const { return stalled_reads_; }
  [[nodiscard]] uint64_t stalledWrites() const { return stalled_writes_; }
  [[nodiscard]] soc::Device* inner() const { return inner_; }

 private:
  soc::Device* inner_;
  bool armed_ = false;
  uint64_t from_ = 0;
  uint64_t until_ = std::numeric_limits<uint64_t>::max();
  uint32_t stall_value_ = 0;
  uint64_t stalled_reads_ = 0;
  uint64_t stalled_writes_ = 0;
};

}  // namespace cabt::fi
