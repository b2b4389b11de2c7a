// SoC bus model: address-windowed devices, a cycle counter driven by the
// clock source (processor or synchronization device), and a transaction
// log that tests use to check cycle-accurate I/O behaviour.
//
// Lazy clock (DESIGN.md section 5.1): the bus caches its *horizon*, the
// minimum Device::nextEvent() over its devices, and recomputes it after
// every read, write, advanceTo and restoreState. Below the horizon no
// device changes state or wants an interrupt sampled on its own, so an
// initiator advances the bus only once its time reaches the horizon, at
// its own bus accesses and when it stops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "common/strutil.h"
#include "obs/metrics.h"
#include "soc/device.h"

namespace cabt::soc {

/// One logged bus transaction.
struct Transaction {
  uint64_t soc_cycle = 0;
  uint32_t addr = 0;
  uint32_t value = 0;
  uint8_t size = 4;
  bool is_write = false;

  bool operator==(const Transaction&) const = default;
};

/// A bus fault window (fault injection, DESIGN.md section 12): accesses to
/// [lo, hi] while `from <= soc_cycle < until` (and while fewer than
/// `max_fires` accesses have matched, 0 = unlimited) are intercepted
/// instead of reaching a device. A faulted read returns `poison`, a
/// faulted write is dropped; both are logged like normal transactions (the
/// response is an architectural observable) and invoke `on_error` when set.
/// fi::Campaign builds both of its bus faults from this one window:
///   * a bus error sets `on_error` to raise the precise bus-error line; the
///     window may cover unmapped space, where a matching access errors
///     instead of tripping the unmapped-address check;
///   * a device stall (a hung bus interface) covers one device's range
///     (deviceRange) with poison 0 and no `on_error`. The device keeps
///     advancing with time; only the guest's accesses vanish.
/// Windows match in arming order: the first armed window that covers the
/// address, is open at the bus cycle and has fires left takes the access.
/// The campaign arms every bus-error window before any stall window, so
/// when both cover an access the error wins — the error response ends the
/// transaction before it reaches the device's interface.
/// Windows themselves are harness state: never serialized, never digested.
struct BusFaultWindow {
  uint32_t lo = 0;
  uint32_t hi = 0;  ///< inclusive
  uint64_t from = 0;
  uint64_t until = ~static_cast<uint64_t>(0);  ///< exclusive
  uint32_t max_fires = 0;                      ///< 0 = unlimited
  uint32_t poison = 0xdeadbeefu;
  std::function<void(const Transaction&)> on_error;
  uint64_t fires = 0;
};

class SocBus {
 public:
  /// Maps `device` at [base, base+size). The bus does not own devices.
  /// Attach everything before the simulation starts.
  void attach(Device* device, uint32_t base, uint32_t size) {
    CABT_CHECK(device != nullptr, "null device");
    CABT_CHECK(size >= 1, "empty device window");
    CABT_CHECK(uint64_t{base} + size <= (uint64_t{1} << 32),
               "device window for '" << device->name() << "' at "
                                     << hex32(base)
                                     << " wraps past 0xffffffff");
    for (const Window& w : windows_) {
      const bool disjoint =
          base + (size - 1) < w.base || w.base + (w.size - 1) < base;
      CABT_CHECK(disjoint, "device window for '" << device->name()
                                                 << "' overlaps '"
                                                 << w.device->name() << "'");
    }
    windows_.push_back({device, base, size});
    lo_ = std::min(lo_, static_cast<uint64_t>(base));
    hi_ = std::max(hi_, static_cast<uint64_t>(base) + size);
    updateHorizon();
  }

  /// True when some device window maps `addr`. On the hot path of every
  /// ISS load/store, so the all-windows bounding box rejects private-
  /// memory addresses in one compare before the window scan.
  [[nodiscard]] bool covers(uint32_t addr) const {
    if (addr < lo_ || addr >= hi_) {
      return false;
    }
    return findWindow(addr) != nullptr;
  }

  /// Advances the bus clock to SoC cycle `to` in one jump: each device
  /// jumps via Device::advanceTo. Times in the past are ignored — with
  /// temporally decoupled initiators a transaction may arrive up to one
  /// quantum behind the bus clock. An advance that stays below the
  /// horizon fires no event, so the horizon stands.
  void advanceTo(uint64_t to) {
    if (to <= soc_cycle_) {
      return;
    }
    for (const Window& w : windows_) {
      w.device->advanceTo(soc_cycle_, to);
    }
    soc_cycle_ = to;
    if (to >= horizon_) {
      updateHorizon();
    }
  }

  /// The earliest SoC cycle at which some device changes state, or wants
  /// an interrupt sampled, without a bus access (kNoEvent: never). An
  /// initiator whose time is below it may skip its interrupt sample and
  /// leave the bus clock behind until its next access or stop.
  [[nodiscard]] uint64_t horizon() const { return horizon_; }

  /// Recomputes the horizon. The bus does so itself after every access,
  /// advance and restore; an initiator calls it after taking an interrupt
  /// (IrqSource::takeIrq changes the controller outside a bus access).
  void updateHorizon() {
    uint64_t h = kNoEvent;
    for (const Window& w : windows_) {
      h = std::min(h, w.device->nextEvent());
    }
    horizon_ = h;
  }

  [[nodiscard]] uint64_t socCycle() const { return soc_cycle_; }

  /// The address range [lo, hi] (inclusive) of the attached device named
  /// `name`. Throws when no attached device has that name.
  [[nodiscard]] std::pair<uint32_t, uint32_t> deviceRange(
      std::string_view name) const {
    for (const Window& w : windows_) {
      if (w.device->name() == name) {
        return {w.base, w.base + (w.size - 1)};
      }
    }
    CABT_FAIL("no device named '" << std::string(name) << "' on the bus");
  }

  uint32_t read(uint32_t addr, unsigned size) {
    if (!bus_faults_.empty()) {
      if (BusFaultWindow* f = matchFault(addr)) {
        ++f->fires;
        ++reads_;
        const Transaction t{soc_cycle_, addr, f->poison,
                            static_cast<uint8_t>(size), false};
        logTransaction(t);
        if (f->on_error) {
          f->on_error(t);
          updateHorizon();  // a bus-error response may raise a line
        }
        return f->poison;
      }
    }
    const Window* w = findWindow(addr);
    CABT_CHECK(w != nullptr, "bus read from unmapped address " << hex32(addr));
    const uint32_t value = w->device->read(addr - w->base, size, soc_cycle_);
    ++reads_;
    logTransaction({soc_cycle_, addr, value, static_cast<uint8_t>(size),
                    false});
    updateHorizon();
    return value;
  }

  void write(uint32_t addr, uint32_t value, unsigned size) {
    if (!bus_faults_.empty()) {
      if (BusFaultWindow* f = matchFault(addr)) {
        ++f->fires;
        ++writes_;
        const Transaction t{soc_cycle_, addr, value,
                            static_cast<uint8_t>(size), true};
        logTransaction(t);  // the dropped write is still an observable
        if (f->on_error) {
          f->on_error(t);
          updateHorizon();
        }
        return;
      }
    }
    const Window* w = findWindow(addr);
    CABT_CHECK(w != nullptr, "bus write to unmapped address " << hex32(addr));
    w->device->write(addr - w->base, value, size, soc_cycle_);
    ++writes_;
    logTransaction({soc_cycle_, addr, value, static_cast<uint8_t>(size),
                    true});
    updateHorizon();
  }

  // -- fault windows (src/fi, DESIGN.md section 12) ----------------------
  //
  // Arm/clear only between runs; matchFault runs inside read/write.

  void armBusFault(BusFaultWindow w) {
    CABT_CHECK(w.lo <= w.hi, "bus-fault window [" << hex32(w.lo) << ", "
                                                  << hex32(w.hi)
                                                  << "] is inverted");
    bus_faults_.push_back(std::move(w));
  }
  void clearBusFaults() { bus_faults_.clear(); }
  [[nodiscard]] const std::vector<BusFaultWindow>& busFaults() const {
    return bus_faults_;
  }
  /// Total faulted accesses across all windows.
  [[nodiscard]] uint64_t busFaultFires() const {
    uint64_t n = 0;
    for (const BusFaultWindow& f : bus_faults_) {
      n += f.fires;
    }
    return n;
  }

  /// Publishes the transaction tallies under `prefix` (e.g. "board.bus.").
  /// Reads/writes are lifetime counts, deliberately independent of the
  /// log cap (the log is a tail, the counters are totals). Sequential
  /// path only, like every other mutating or aggregate accessor here.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const {
    reg.setCounter(prefix + "reads", reads_);
    reg.setCounter(prefix + "writes", writes_);
    reg.setCounter(prefix + "dropped_transactions", dropped_transactions_);
    reg.setCounter(prefix + "log_entries", log_.size());
    reg.setGauge(prefix + "soc_cycle", static_cast<double>(soc_cycle_));
  }

  [[nodiscard]] const std::vector<Transaction>& log() const { return log_; }
  void clearLog() {
    log_.clear();
    dropped_transactions_ = 0;
  }

  /// Caps the transaction log at roughly `max_entries`: the most recent
  /// `max_entries` transactions are always retained and the oldest are
  /// discarded (amortised O(1); memory stays below 2x the cap). 0 (the
  /// default, used by the tests) keeps the full unbounded log, so long
  /// benchmark runs should set a cap.
  void setLogLimit(size_t max_entries) {
    log_limit_ = max_entries;
    trimLog();
  }
  [[nodiscard]] size_t logLimit() const { return log_limit_; }
  /// Transactions discarded by the cap since the last clearLog().
  [[nodiscard]] uint64_t droppedTransactions() const {
    return dropped_transactions_;
  }

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // The bus section holds the clock, the transaction-log tail and every
  // attached device's state in window-attachment order. The window table
  // itself is construction-time wiring: restore requires a bus built
  // with the identical device set, verified per device by name.

  void saveState(serial::Writer& w) const {
    w.tag("bus");
    w.u64(soc_cycle_);
    w.u64(dropped_transactions_);
    w.u32(static_cast<uint32_t>(log_.size()));
    for (const Transaction& t : log_) {
      w.u64(t.soc_cycle);
      w.u32(t.addr);
      w.u32(t.value);
      w.u8(t.size);
      w.b(t.is_write);
    }
    w.u32(static_cast<uint32_t>(windows_.size()));
    for (const Window& win : windows_) {
      w.str(win.device->name());
      serial::Writer dev;
      win.device->saveState(dev);
      w.u32(static_cast<uint32_t>(dev.size()));
      w.bytes(dev.data().data(), dev.size());
    }
  }

  void restoreState(serial::Reader& r) {
    r.tag("bus");
    soc_cycle_ = r.u64();
    dropped_transactions_ = r.u64();
    // Serialized transaction: soc_cycle u64, addr u32, value u32, size
    // u8, is_write u8.
    log_.resize(r.count(18));
    for (Transaction& t : log_) {
      t.soc_cycle = r.u64();
      t.addr = r.u32();
      t.value = r.u32();
      t.size = r.u8();
      t.is_write = r.b();
    }
    const uint32_t num_devices = r.u32();
    CABT_CHECK(num_devices == windows_.size(),
               "snapshot has " << num_devices << " devices, this bus has "
                               << windows_.size());
    for (const Window& win : windows_) {
      const std::string name = r.str();
      CABT_CHECK(name == win.device->name(),
                 "snapshot device '" << name << "' does not match attached '"
                                     << win.device->name() << "'");
      const uint32_t len = r.u32();
      const size_t before = r.pos();
      win.device->restoreState(r);
      CABT_CHECK(r.pos() - before == len,
                 "device '" << name << "' restored " << (r.pos() - before)
                            << " bytes of a " << len << "-byte section");
    }
    updateHorizon();
  }

 private:
  struct Window {
    Device* device;
    uint32_t base;
    uint32_t size;
  };

  [[nodiscard]] const Window* findWindow(uint32_t addr) const {
    for (const Window& w : windows_) {
      if (addr >= w.base && addr - w.base < w.size) {
        return &w;
      }
    }
    return nullptr;
  }

  [[nodiscard]] BusFaultWindow* matchFault(uint32_t addr) {
    for (BusFaultWindow& f : bus_faults_) {
      if (addr >= f.lo && addr <= f.hi && soc_cycle_ >= f.from &&
          soc_cycle_ < f.until && (f.max_fires == 0 || f.fires < f.max_fires)) {
        return &f;
      }
    }
    return nullptr;
  }

  void logTransaction(Transaction t) {
    log_.push_back(t);
    if (log_limit_ != 0 && log_.size() >= 2 * log_limit_) {
      trimLog();
    }
  }

  void trimLog() {
    if (log_limit_ == 0 || log_.size() <= log_limit_) {
      return;
    }
    const size_t drop = log_.size() - log_limit_;
    log_.erase(log_.begin(),
               log_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_transactions_ += drop;
  }

  std::vector<Window> windows_;
  /// Bounding box over all windows ([lo_, hi_) in a 64-bit range so a
  /// window ending at 2^32 needs no special case); empty bus = empty box.
  uint64_t lo_ = ~static_cast<uint64_t>(0);
  uint64_t hi_ = 0;
  std::vector<Transaction> log_;
  size_t log_limit_ = 0;  ///< 0 = unbounded (full logging, the test default)
  uint64_t dropped_transactions_ = 0;
  uint64_t soc_cycle_ = 0;
  /// Cached minimum of Device::nextEvent() (see horizon()). Derived from
  /// device state, so never serialized.
  uint64_t horizon_ = kNoEvent;
  /// Lifetime transaction tallies for publishMetrics. Observability
  /// only: never serialized (snapshot round-trips must stay byte-stable
  /// with pre-existing images) and never digested.
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  /// Fault-injection harness state, likewise never serialized/digested.
  /// An armed-but-never-matching window leaves every architectural byte
  /// (log, device state, counters) untouched — the non-perturbation
  /// invariant tests/fi_test.cpp pins.
  std::vector<BusFaultWindow> bus_faults_;
};

}  // namespace cabt::soc
