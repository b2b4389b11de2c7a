// The emulation platform (paper section 1): the V6X VLIW processor next
// to the "FPGA" hardware — the synchronization device that generates SoC
// clock cycles for the attached hardware, and the bus interface that
// adapts VLIW accesses to the SoC bus of the emulated processor core.
//
// Also provides the reference board (N ISS cores + shared peripherals,
// hosted on the event kernel with quantum-based temporal decoupling) and
// the state-comparison helpers used by the equivalence tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/arch.h"
#include "elf/elf.h"
#include "iss/iss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/kernel.h"
#include "soc/interrupts.h"
#include "soc/standard_board.h"
#include "soc/sync_device.h"
#include "soc/watchdog.h"
#include "vliw/sim.h"
#include "xlat/regmap.h"
#include "xlat/translator.h"

namespace cabt::platform {

struct PlatformConfig {
  /// VLIW clock cycles per generated SoC cycle (the FPGA generation rate).
  unsigned vliw_cycles_per_soc_cycle = 1;
  /// VLIW-cycle budget of run(); exhausting it stops with kMaxCycles.
  uint64_t max_cycles = 4'000'000'000ull;
};

/// Memory-mapped synchronization device front end for the V6X core.
/// Reading the status register waits for the end of cycle generation:
/// it is refused until the cycle of the last edge, which the device
/// computes (SyncDevice::cyclesToIdle), so the whole wait is charged in
/// one step. Every other access completes at once.
class SyncHandler : public vliw::IoHandler {
 public:
  explicit SyncHandler(soc::SyncDevice* sync)
      : IoHandler(xlat::kSyncDeviceBase, soc::SyncDevice::kWindowSize),
        sync_(sync) {}

  uint64_t refusedCycles(uint32_t addr, bool is_write) override {
    if (!is_write &&
        addr == xlat::kSyncDeviceBase + soc::SyncDevice::kStatusOffset) {
      return sync_->cyclesToIdle();
    }
    return 0;
  }
  uint32_t load(uint32_t addr, unsigned) override {
    switch (addr - xlat::kSyncDeviceBase) {
      case soc::SyncDevice::kStatusOffset:
        return 0;  // only readable when idle
      case soc::SyncDevice::kTotalOffset:
        return static_cast<uint32_t>(sync_->totalGenerated());
      default:
        CABT_FAIL("sync device read at bad offset");
    }
  }
  void store(uint32_t addr, uint32_t value, unsigned) override {
    switch (addr - xlat::kSyncDeviceBase) {
      case soc::SyncDevice::kStartOffset:
        sync_->start(value);
        break;
      case soc::SyncDevice::kCorrectOffset:
        sync_->correct(value);
        break;
      default:
        CABT_FAIL("sync device write at bad offset");
    }
  }

 private:
  soc::SyncDevice* sync_;
};

/// Bus interface between the V6X core and the SoC bus (identity-mapped
/// over the source I/O region). While cycle generation is active, an
/// access completes on the next generated SoC edge (bus handshake in the
/// emulated clock domain): it is refused until that edge's cycle
/// (SyncDevice::cyclesToNextEdge), or not at all in a cycle that has an
/// edge. When generation is idle it completes immediately at the current
/// SoC time. The simulator has caught the sync device up to the current
/// cycle before it asks.
class BridgeHandler : public vliw::IoHandler {
 public:
  BridgeHandler(soc::SocBus* bus, soc::SyncDevice* sync, uint32_t io_base,
                uint32_t io_size)
      : IoHandler(io_base, io_size), bus_(bus), sync_(sync) {}

  uint64_t refusedCycles(uint32_t, bool) override {
    return sync_->edgeThisCycle() ? 0 : sync_->cyclesToNextEdge();
  }
  uint32_t load(uint32_t addr, unsigned size) override {
    return bus_->read(addr, size);
  }
  void store(uint32_t addr, uint32_t value, unsigned size) override {
    bus_->write(addr, value, size);
  }

 private:
  soc::SocBus* bus_;
  soc::SyncDevice* sync_;
};

struct RunResult {
  vliw::RunState state = vliw::RunState::kRunning;
  uint64_t vliw_cycles = 0;
  uint64_t generated_cycles = 0;  ///< SoC cycles emitted by the sync device
  uint64_t sync_stall_cycles = 0;
  uint64_t correction_cycles = 0;
};

/// The assembled platform: VLIW simulator + sync device + bus bridge +
/// standard peripherals.
class EmulationPlatform {
 public:
  EmulationPlatform(const arch::ArchDescription& desc,
                    const elf::Object& image, PlatformConfig config = {});

  /// Runs the V6X machine until it stops or config().max_cycles run out.
  /// The synchronization device advances in the VLIW clock domain — the
  /// simulator reports its elapsed cycles before every I/O access and at
  /// every stop (V6xSim::setClock) — so no event kernel is involved: the
  /// machine is the platform's only initiator.
  RunResult run();

  [[nodiscard]] vliw::V6xSim& sim() { return sim_; }
  [[nodiscard]] const vliw::V6xSim& sim() const { return sim_; }
  [[nodiscard]] soc::SyncDevice& sync() { return *sync_; }
  [[nodiscard]] soc::StandardPeripherals& board() { return *board_; }
  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  /// Address of the image's simulated cache state (`.cachedata`, paper
  /// Fig. 4), or nullopt when the image simulates no cache.
  [[nodiscard]] std::optional<uint32_t> cacheDataAddr() const {
    return cache_data_addr_;
  }

  /// Reads the V6X register holding source data register Di.
  [[nodiscard]] uint32_t srcD(int i) const {
    return sim_.reg(xlat::srcD(i));
  }
  /// Reads the V6X register holding source address register Ai.
  [[nodiscard]] uint32_t srcA(int i) const {
    return sim_.reg(xlat::srcA(i));
  }

 private:
  PlatformConfig config_;
  std::unique_ptr<soc::StandardPeripherals> board_;
  std::unique_ptr<soc::SyncDevice> sync_;
  std::unique_ptr<SyncHandler> sync_handler_;
  std::unique_ptr<BridgeHandler> bridge_;
  vliw::V6xSim sim_;
  std::optional<uint32_t> cache_data_addr_;
};

/// ISS configuration equivalent to a translator detail level, for the
/// scenario matrix (single-core / multi-core / interrupt-driven crossed
/// with functional / static / branch-predict / icache).
iss::IssConfig issConfigFor(xlat::DetailLevel level, iss::IssConfig base = {});

/// Address of `symbol` in `object`; throws when absent. Used to resolve
/// interrupt handler entries for IssConfig::extra_leaders.
uint32_t symbolAddr(const elf::Object& object, std::string_view symbol);

/// Interrupt lines of the reference board's per-core controllers
/// (construction-time wiring; see ReferenceBoard below).
inline constexpr unsigned kPTimerIrqLine = 0;    ///< core 0 only
inline constexpr unsigned kMailboxIrqLine = 1;   ///< doorbell i -> core i
inline constexpr unsigned kBusErrorIrqLine = 2;  ///< fi bus-error windows
inline constexpr unsigned kWatchdogIrqLine = 3;  ///< core 0 only, opt-in

struct BoardConfig {
  /// Base ISS configuration applied to every core (detail knobs,
  /// instruction limits, extra block leaders for interrupt handlers).
  iss::IssConfig iss;
  /// SoC cycles of temporal decoupling: how far one core runs per kernel
  /// activation before syncing. With a single core the simulation is
  /// exactly quantum-invariant; with several it bounds cross-core
  /// visibility latency (see sim/kernel.h).
  sim::Cycle quantum = 1024;
  /// Attach the watchdog peripheral (soc::WatchdogDevice) at
  /// StandardIoMap::kWatchdogOffset, wired to core 0's controller on
  /// kWatchdogIrqLine. Opt-in: attaching a device changes the snapshot
  /// device set, so default boards (and their golden digests) are
  /// untouched.
  bool watchdog = false;
};

/// The reference board, grown into a multi-core SoC: N ISS cores (one
/// ELF image each, private program memory) share the standard
/// peripherals plus the interrupt path — a per-core interrupt
/// controller, a programmable interval timer wired to core 0 line 0, and
/// an inter-core mailbox whose doorbell `i` rings line 1 on core i. The
/// cores are event-kernel processes that each run up to one quantum of
/// local time before syncing. The single-image constructor keeps the
/// original ground-truth behaviour (one core, same peripherals).
class ReferenceBoard {
 public:
  ReferenceBoard(const arch::ArchDescription& desc, const elf::Object& object,
                 iss::IssConfig config = {});
  ReferenceBoard(const arch::ArchDescription& desc,
                 const std::vector<const elf::Object*>& images,
                 BoardConfig config = {});
  ~ReferenceBoard();  // out of line: CoreProcess is an incomplete type here

  /// Runs every core to completion under the kernel. Returns kHalted
  /// when all cores halted, else the first non-halted core's reason.
  iss::StopReason run();

  /// Deterministic fast-forward: dispatches kernel events up to SoC
  /// cycle `limit` and returns the kernel's time. Calling runTo in any
  /// sequence of limits is bit-identical to one uninterrupted run — this
  /// is how a restored snapshot replays to an arbitrary cycle, and how
  /// snap::Recorder runs the board in checkpoint intervals.
  sim::Cycle runTo(sim::Cycle limit) { return kernel_.run(limit); }

  /// The watchdog peripheral; only on boards built with
  /// BoardConfig::watchdog.
  [[nodiscard]] soc::WatchdogDevice& watchdog();
  [[nodiscard]] bool hasWatchdog() const { return watchdog_ != nullptr; }

  /// Instructions retired summed over every core — the board's
  /// contribution to fleet-level aggregate-MIPS accounting (src/fleet,
  /// bench/bench_fleet.cpp).
  [[nodiscard]] uint64_t instructionsRetired() const;

  [[nodiscard]] size_t numCores() const { return cores_.size(); }
  [[nodiscard]] iss::Iss& core(size_t i) { return *cores_.at(i); }
  [[nodiscard]] const iss::Iss& core(size_t i) const { return *cores_.at(i); }
  [[nodiscard]] iss::Iss& iss() { return *cores_.front(); }
  [[nodiscard]] const iss::Iss& iss() const { return *cores_.front(); }
  [[nodiscard]] soc::StandardPeripherals& board() { return *board_; }
  [[nodiscard]] const soc::StandardPeripherals& board() const {
    return *board_;
  }
  [[nodiscard]] soc::InterruptController& intc(size_t i) {
    return *intcs_.at(i);
  }
  [[nodiscard]] soc::ProgrammableTimer& ptimer() { return *ptimer_; }
  [[nodiscard]] soc::MailboxDevice& mailbox() { return *mailbox_; }
  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] const sim::Kernel& kernel() const { return kernel_; }
  /// The event-kernel process hosting core `i` (snapshot identity: the
  /// kernel queue serializes processes by this index).
  [[nodiscard]] sim::Process* process(size_t i) const;

  // -- observability (src/obs, DESIGN.md section 11) --------------------

  /// Wires a timeline sink through the whole board: per-core slice spans
  /// and ISS instants (irq, trace_form, guard_bail) on lanes
  /// [0, numCores), and names the snap lane, where snap::Recorder puts
  /// its checkpoint instants. Pass nullptr to detach. Observers never
  /// feed back: attaching a sink leaves every architectural byte — and
  /// therefore snap::digest — unchanged.
  void setTraceSink(obs::TraceSink* sink);
  [[nodiscard]] obs::TraceSink* traceSink() const { return trace_sink_; }
  /// Publishes <prefix>coreN.iss.*, <prefix>kernel.*, <prefix>bus.* and
  /// the board's <prefix>fi.* device counters into `reg`.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "board.") const;

 private:
  class CoreProcess;

  void init(const arch::ArchDescription& desc,
            const std::vector<const elf::Object*>& images,
            const BoardConfig& config);

  sim::Kernel kernel_;
  std::unique_ptr<soc::StandardPeripherals> board_;
  std::vector<std::unique_ptr<soc::InterruptController>> intcs_;
  std::unique_ptr<soc::ProgrammableTimer> ptimer_;
  std::unique_ptr<soc::MailboxDevice> mailbox_;
  std::unique_ptr<soc::WatchdogDevice> watchdog_;  ///< BoardConfig::watchdog
  std::vector<std::unique_ptr<iss::Iss>> cores_;
  std::vector<std::unique_ptr<CoreProcess>> procs_;
  obs::TraceSink* trace_sink_ = nullptr;  ///< never serialized
};

/// Remap-aware equality of an ISS value and a platform value: equal, or
/// the platform value is the remapped image of a source-region pointer.
bool valuesMatch(const arch::ArchDescription& desc, uint32_t iss_value,
                 uint32_t platform_value);

/// Compares the full architectural state (data registers, address
/// registers, remapped memory) after both sides halted, and, when the
/// platform's image simulates the cache and the reference models it,
/// every tag word and each set's LRU way. Returns a human-readable
/// description of the first mismatch, or an empty string.
std::string compareFinalState(const arch::ArchDescription& desc,
                              const iss::Iss& reference,
                              const EmulationPlatform& platform,
                              const elf::Object& source_object);

}  // namespace cabt::platform
