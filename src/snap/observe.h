// One board observation, the first field where two observations differ,
// and the engine grid the differential runs sweep (DESIGN.md section
// 9.5). The fuzz oracle, the differential test suites and state_tool
// capture and compare boards through this module.
//
// An Observation holds the observables a differential can read off a
// board: per core the stop reason, pc, register files, the architectural
// IssStats counters and the interrupt controller's delivery record; per
// board the bus clock, the full transaction log, the device counters,
// the scratch registers and the kernel's dispatch count; plus the
// snap::digest, which covers everything else (memory, timing residue,
// device internals). firstMismatch names the first field that differs
// and where, so a failing differential says "core 1 a3", not just
// "digest differs".
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iss/iss.h"
#include "platform/platform.h"
#include "soc/bus.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt::snap {

/// One core's observables. The interrupt-controller fields stay empty
/// when the core is captured bare, without a board.
struct CoreObservation {
  iss::StopReason stop = iss::StopReason::kRunning;
  uint32_t pc = 0;
  std::array<uint32_t, 16> d{};
  std::array<uint32_t, 16> a{};
  /// The whole record, so a suite can read dispatch-path counters too;
  /// only iss::kArchitecturalCounters are compared.
  iss::IssStats stats;
  std::vector<uint64_t> irq_times;  ///< intc delivery timestamps
  uint32_t intc_pending = 0;
  uint64_t intc_irqs_taken = 0;
};

/// One board's observables (DESIGN.md section 9.5).
struct Observation {
  std::vector<CoreObservation> cores;
  uint64_t bus_cycle = 0;
  std::vector<soc::Transaction> bus_log;
  uint64_t ptimer_expiries = 0;
  uint64_t mailbox_pushes = 0;
  uint64_t mailbox_dropped = 0;
  uint64_t mailbox_depth = 0;
  std::array<uint32_t, 16> scratch{};
  uint64_t kernel_events = 0;
  uint64_t digest = 0;
};

/// Captures a bare core.
CoreObservation observe(const iss::Iss& core);
/// Captures a board: calls snap::digest once and copies no memory image.
Observation observe(platform::ReferenceBoard& board);

/// "" when the two match. Otherwise one line naming the first field that
/// differs and where, with values as `got != want`: "core 1 a3 0x10 !=
/// 0x14", "bus txn 17 size 1 != 4", "core 0 cache_penalty 96 != 95".
/// The digest is checked last, so the line names a concrete field
/// whenever one differs.
std::string firstMismatch(const CoreObservation& want,
                          const CoreObservation& got);
std::string firstMismatch(const Observation& want, const Observation& got);

/// The cross-detail-level comparison: per core only what the timing
/// model cannot change — instructions, io reads and writes, pc and
/// registers. Cycles and everything timed are ignored.
std::string firstFunctionalMismatch(const Observation& want,
                                    const Observation& got);

/// One point of the differential grid.
struct GridPoint {
  xlat::DetailLevel level = xlat::DetailLevel::kICache;
  bool threaded = true;  ///< IssConfig::use_block_cache
};

/// The two ISS engines at `level`, in the order step, threaded.
std::array<GridPoint, 2> engineGrid(
    xlat::DetailLevel level = xlat::DetailLevel::kICache);

/// "step" or "threaded" (the level is not included).
std::string gridPointName(const GridPoint& p);

/// `base` moved to the point: issConfigFor(level) applied to base.iss,
/// and the engine.
platform::BoardConfig boardConfigFor(const GridPoint& p,
                                     platform::BoardConfig base = {});

/// A board of `images` on the default architecture, configured by
/// boardConfigFor(point, base) with the images' interrupt-handler
/// entries added to the extra block leaders.
std::unique_ptr<platform::ReferenceBoard> makeBoard(
    const workloads::BoardImages& images, const GridPoint& point = {},
    platform::BoardConfig base = {});

}  // namespace cabt::snap
