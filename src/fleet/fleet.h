// Board-fleet driver: schedules M independent ReferenceBoards over the
// shared host worker pool (sim/host_pool.h) so a multi-core host
// simulates a whole rack of target boards at once (DESIGN.md
// section 14).
//
// Two properties make fleets cheap and trustworthy:
//
//  * Shared artifacts. Every board constructed from the same image and
//    ISS configuration acquires the same immutable
//    core::ProgramArtifact through the process-wide cache, so an
//    M-board fleet pays exactly one decode/lower per distinct image —
//    only the per-core mutable residue (block-cache overlay, traces,
//    device state) is per board. The FleetResult records the cache's
//    hit/decode delta so benches and tests can assert the sharing
//    actually happened.
//
//  * Bit-identical scheduling independence. Boards never share mutable
//    state — each owns its kernel, cores, peripherals and memory, and
//    reads only const images and const artifacts — so the host
//    schedule (thread count, run order) cannot leak into any board's
//    architectural state. A fleet run of M identical boards produces M
//    identical snap::digest values, each equal to a plain single-board
//    run's (tests/fleet_test.cpp).
//
// Every board boots from reset, and each host task builds, runs and
// destroys its board before it takes the next one, so at most
// host_threads boards are live at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/arch.h"
#include "core/program_artifact.h"
#include "elf/elf.h"
#include "iss/iss.h"
#include "obs/metrics.h"
#include "platform/platform.h"

namespace cabt::fleet {

struct FleetConfig {
  /// Architecture shared by every board in the fleet.
  arch::ArchDescription desc;
  /// Per-board configuration (cores come from the image list passed to
  /// run()). Applied identically to every board.
  platform::BoardConfig board;
  /// Number of boards to schedule.
  size_t boards = 1;
  /// Host threads running boards, calling thread included; 0 picks
  /// hardware_concurrency clamped to [1, 16].
  unsigned host_threads = 0;
  /// Optional per-board inspection hook, called right after a board's
  /// run completes and before the board is destroyed. Runs on a worker
  /// thread: it must only touch state private to this board's index
  /// (e.g. write slot `index` of a pre-sized vector).
  std::function<void(size_t index, platform::ReferenceBoard&)> inspect;
};

/// What one board's run came to.
struct BoardResult {
  iss::StopReason stop = iss::StopReason::kHalted;
  uint64_t digest = 0;        ///< snap::digest after the run
  uint64_t instructions = 0;  ///< retired, summed over the board's cores
  uint64_t soc_cycles = 0;    ///< bus clock at the end of the run
  double host_seconds = 0.0;  ///< this board's own wall time
};

struct FleetResult {
  std::vector<BoardResult> boards;
  double host_seconds = 0.0;    ///< wall time of the whole fleet run
  unsigned host_parallelism = 0;
  /// Artifact-cache activity attributable to this run (after minus
  /// before): decodes == number of distinct images proves the fleet
  /// shared one decode per image.
  core::ProgramArtifactCache::Stats artifact;
  /// Board 0's own metrics snapshot — one exemplar board, folded under
  /// "<prefix>board0." by publishMetrics via MetricsRegistry::merge.
  obs::MetricsRegistry exemplar;

  [[nodiscard]] uint64_t totalInstructions() const;
  [[nodiscard]] double boardsPerSec() const;
  [[nodiscard]] double aggregateMips() const;
  /// True when every board produced the same digest (the M-identical-
  /// boards invariant; trivially true for fleets of one).
  [[nodiscard]] bool digestsAgree() const;

  /// Publishes <prefix>boards, <prefix>boards_per_sec,
  /// <prefix>aggregate_mips, <prefix>instructions,
  /// <prefix>artifact_{decodes,hits}, a per-board instruction
  /// histogram, and the exemplar board's metrics under
  /// <prefix>board0.*.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "fleet.") const;
};

class Driver {
 public:
  explicit Driver(FleetConfig config);

  /// Runs config.boards identical boards booted from `images` (one
  /// core per image, as with ReferenceBoard) over the host pool;
  /// results land in board order regardless of completion order.
  FleetResult run(const std::vector<const elf::Object*>& images);

  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
};

}  // namespace cabt::fleet
