// SoC-bus device interface.
//
// Devices are clocked exclusively by SoC clock cycles. On the reference
// board those are processor cycles; on the emulation platform they are the
// cycles produced by the synchronization device — which is exactly the
// paper's point: the attached hardware cannot tell the difference as long
// as the generated cycle stream is accurate.
//
// The lazy-clock contract (DESIGN.md section 5.1): a device is seen only
// through bus transactions and interrupts, so it never needs clocking
// cycle by cycle. It exposes one time interface — advanceTo() jumps it
// over an interval, and nextEvent() names the earliest SoC cycle at which
// it changes state, or wants an interrupt sampled, without a bus access.
// The bus caches the minimum over its devices as its *horizon*; initiators
// advance the bus only at the horizon, at their own bus accesses and when
// they stop, which is bit-identical to advancing it at every boundary
// because advances are pure functions of time that act as a running
// maximum.
#pragma once

#include <cstdint>
#include <string>

#include "common/serial.h"

namespace cabt::soc {

/// nextEvent() of a device that never changes state on its own.
inline constexpr uint64_t kNoEvent = ~static_cast<uint64_t>(0);

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Read `size` bytes (1, 2 or 4) at byte offset `offset` within the
  /// device window. `soc_cycle` is the bus timestamp of the transaction.
  virtual uint32_t read(uint32_t offset, unsigned size, uint64_t soc_cycle) = 0;

  /// Write access, same conventions as read().
  virtual void write(uint32_t offset, uint32_t value, unsigned size,
                     uint64_t soc_cycle) = 0;

  /// Advances the device from SoC cycle `from` (exclusive) to `to`
  /// (inclusive) in one jump, in O(1) or O(events): the result must be a
  /// pure function of the interval, so one jump equals any split of it.
  virtual void advanceTo(uint64_t from, uint64_t to) = 0;

  /// The earliest SoC cycle at which the device changes state, or wants
  /// an interrupt sampled, without a bus access: kNoEvent when never, and
  /// a time at or before the bus clock when a sample is due right away.
  /// It moves only inside a bus read, write or restoreState, or an
  /// advanceTo that reaches it; the bus recomputes its horizon after each.
  [[nodiscard]] virtual uint64_t nextEvent() const = 0;

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // SocBus::saveState serializes every attached device through these, in
  // window-attachment order, each section framed with the device's name
  // and a byte length (so a device whose format drifts fails loudly on
  // restore). The defaults serialize nothing — correct for genuinely
  // stateless devices; every stock device with observable state
  // (peripherals.h, interrupts.h) overrides both. A device that keeps
  // state but skips the override silently diverges after restore, which
  // is why tests/snap_test.cpp compares full device state.

  virtual void saveState(serial::Writer& w) const { (void)w; }
  virtual void restoreState(serial::Reader& r) { (void)r; }

 private:
  std::string name_;
};

}  // namespace cabt::soc
