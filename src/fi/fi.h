// Deterministic fault-injection campaigns (DESIGN.md section 12).
//
// A Campaign is the user-facing layer of src/fi: a list of FaultSpecs —
// parsed from `kind@cycle:key=value,...` strings or built directly — that
// arm() translates onto a platform::ReferenceBoard:
//
//   * core faults (register/pc/memory-word flips) become fi::CoreFault
//     entries in per-core injectors, applied by the ISS at basic-block
//     boundaries through the due-time ladder — bit-identical across both
//     ISS engines (threaded and step());
//   * bus errors become soc::BusFaultWindows whose on_error raises the
//     precise bus-error line (platform::kBusErrorIrqLine) on the faulted
//     core's interrupt controller, delivered — like every interrupt — at
//     the next block boundary;
//   * device stalls become soc::BusFaultWindows over the named device's
//     bus range: reads return 0, writes are dropped, nothing is raised.
//     They are armed after every bus-error window, so an error wins over
//     a stall on the same access (the bus takes the first matching
//     window).
//
// Faults act on the running board only. Recovery from them — the
// snapshot ring, divergence detection against a digest trail, the
// watchdog-triggered rewind — is snap::Recorder's (src/snap/recorder.h).
//
// An armed campaign whose faults never fire perturbs nothing: digests and
// bus logs are byte-identical to an FI-off run (tests/fi_test.cpp).
// The campaign must outlive the run (the bus keeps a callback into it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fi/inject.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cabt::platform {
class ReferenceBoard;
}  // namespace cabt::platform

namespace cabt::fi {

enum class FaultKind : uint8_t {
  kDataRegFlip,  // dreg:  d[index] ^= mask on core `core`
  kAddrRegFlip,  // areg:  a[index] ^= mask
  kPcFlip,       // pc:    pc ^= mask
  kPcSet,        // pcset: pc = addr
  kMemFlip,      // mem:   private-memory word at addr ^= mask
  kBusError,     // buserr: bus window [addr, addr_hi] errors in [cycle,until)
  kDeviceStall,  // stall: device `device` stalled in [cycle, until)
};

struct FaultSpec {
  FaultKind kind = FaultKind::kDataRegFlip;
  uint64_t cycle = 0;
  size_t core = 0;
  unsigned index = 0;   // register number
  uint32_t addr = 0;    // mem/pcset target, buserr window lo
  uint32_t addr_hi = 0; // buserr window hi (0 = addr + 3)
  uint32_t mask = 0;
  uint64_t until = ~static_cast<uint64_t>(0);  // buserr/stall window end
  uint32_t count = 1;   // buserr max fires (0 = unlimited)
  std::string device;   // stall target name
};

/// Parses "kind@cycle:key=value,..."; kinds dreg/areg/pc/pcset/mem/buserr/
/// stall, keys core/index/addr/hi/mask/until/count/device. Every number
/// is a non-negative integer that fits its field (cycle and until 64
/// bits, addr/hi/mask/count 32). Throws cabt::Error on malformed input.
FaultSpec parseFaultSpec(const std::string& spec);

class Campaign {
 public:
  void add(const FaultSpec& spec) { specs_.push_back(spec); }
  /// Arms every spec on `board`. Call once, before the run; the campaign
  /// owns the per-core injectors and must outlive the board's run. Throws
  /// cabt::Error before arming anything when a spec names a core the
  /// board does not have, a register index past 15 or a device not on
  /// the bus.
  void arm(platform::ReferenceBoard& board);
  /// Detaches everything armed (injectors, bus windows).
  void disarm();

  [[nodiscard]] size_t scheduled() const { return specs_.size(); }
  /// Core faults that have fired so far.
  [[nodiscard]] uint64_t firedCount() const;
  [[nodiscard]] const std::vector<FiredFault>& fired(size_t core) const {
    return injectors_.at(core)->fired();
  }

  /// Publishes fi.* counters (scheduled/fired faults, bus-error fires,
  /// device stalls) under `prefix`.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "fi.") const;
  /// Emits one timeline instant per fired fault, post-run (the injector
  /// itself never writes the sink).
  void emitTrace(obs::TraceSink& sink) const;

 private:
  std::vector<FaultSpec> specs_;
  std::vector<std::unique_ptr<CoreInjector>> injectors_;  // indexed by core
  platform::ReferenceBoard* board_ = nullptr;
  /// (core, soc_cycle, addr) of each bus-error fire, recorded by the
  /// on_error callbacks (sequential drain only).
  std::vector<std::pair<size_t, std::pair<uint64_t, uint32_t>>> bus_fires_;
  /// The stall windows' slots in the bus's window list: [first, end).
  size_t stall_windows_first_ = 0;
  size_t stall_windows_end_ = 0;
};

}  // namespace cabt::fi
