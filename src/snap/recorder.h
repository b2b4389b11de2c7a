// Periodic checkpoints, the digest trail and recovery through the
// snapshot ring (DESIGN.md sections 9.4 and 12.4).
//
// A Recorder runs a platform::ReferenceBoard in interval-sized chunks of
// SoC cycles and, between chunks, records a full snapshot (save) into a
// bounded ring and a (cycle, digest) pair into the trail. Chunking never
// changes behaviour: the kernel dispatches the identical (time,
// insertion) order whether the board runs once or per chunk. recover()
// rewinds the board to the newest ring entry that restores intact and
// reproduces its digest. A board without a recorder keeps no ring and
// no trail; the recorder is the board's only host-side harness.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "platform/platform.h"

namespace cabt::snap {

/// One ring entry: the full board snapshot (save) plus the cycle it was
/// taken at and the state digest there.
struct Checkpoint {
  sim::Cycle cycle = 0;
  uint64_t digest = 0;
  std::vector<uint8_t> data;
};

/// (cycle, digest) pairs at checkpoint boundaries, oldest first.
using Trail = std::vector<std::pair<sim::Cycle, uint64_t>>;

/// Total automatic recoveries runTo() may perform before it gives up and
/// keeps running degraded (a deterministic hang would otherwise recover
/// forever).
inline constexpr size_t kMaxAutoRecoveries = 4;

/// What recover() did, entry by entry.
struct RecoveryReport {
  bool recovered = false;
  sim::Cycle resume_cycle = 0;  ///< cycle of the restored ring entry
  uint64_t digest = 0;          ///< digest after the restore
  size_t entries_tried = 0;
  size_t entries_corrupt = 0;   ///< failed integrity/restore
  size_t entries_diverged = 0;  ///< restored but digest-mismatched
  std::string detail;           ///< human-readable failure summary
};

class Recorder {
 public:
  /// Checkpoints `board` (which must outlive the recorder) every
  /// `interval` SoC cycles, keeping the newest `ring` snapshots and the
  /// full trail. With `auto_recover`, runTo() calls recover() itself
  /// when a chunk is poisoned (see runTo), at most kMaxAutoRecoveries
  /// times.
  Recorder(platform::ReferenceBoard& board, sim::Cycle interval, size_t ring,
           bool auto_recover = false);

  /// board.runTo(limit) in interval-sized chunks, checkpointing between
  /// them. A chunk is poisoned when its checkpoint contradicts the
  /// expected trail (a divergence) or the board's watchdog fired inside
  /// it; a poisoned checkpoint goes into neither the ring nor the trail,
  /// so recover() never resumes inside the failure. Returns the kernel's
  /// time.
  sim::Cycle runTo(sim::Cycle limit);

  /// Arms divergence detection: each checkpoint's digest is compared
  /// against the entry with the same cycle in `trail` (from a known-good
  /// run); a mismatch, or a checkpoint cycle the trail never reached,
  /// poisons the chunk. recover() likewise only rewinds to
  /// trail-certified entries while this is armed.
  void expectTrail(Trail trail) { expected_ = std::move(trail); }

  /// Walks the ring newest to oldest and restores the first entry that
  /// passes the integrity footer and reproduces its recorded digest (and
  /// matches the expected trail when armed). On success the board has
  /// rewound to that entry, newer entries and trail suffixes are
  /// discarded, and deterministic replay resumes from there.
  /// report.recovered == false means the whole ring was exhausted.
  RecoveryReport recover();

  /// The retained snapshot ring, oldest first. The mutable overload
  /// lets a caller edit entries in place (the recovery tests corrupt
  /// them to exercise recover()'s fall-through).
  [[nodiscard]] const std::deque<Checkpoint>& checkpoints() const {
    return checkpoints_;
  }
  [[nodiscard]] std::deque<Checkpoint>& checkpoints() { return checkpoints_; }
  /// Every (cycle, digest) pair recorded since construction — the replay
  /// ledger golden-state checks compare against.
  [[nodiscard]] const Trail& digestTrail() const { return trail_; }
  /// Completed recoveries (manual and automatic).
  [[nodiscard]] size_t recoveries() const { return recoveries_; }
  /// Chunks whose checkpoint digest contradicted the expected trail.
  [[nodiscard]] size_t divergences() const { return divergences_; }

  /// Publishes <prefix>snap.* (ring and trail) and <prefix>fi.recoveries
  /// and fi.divergences into `reg`.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "board.") const;

 private:
  /// Returns whether the chunk ending at `cycle` is poisoned (`fired`,
  /// or off the expected trail); only a clean one is recorded.
  bool takeCheckpoint(sim::Cycle cycle, bool fired);
  /// True when `digest` at `cycle` is on the expected trail (or none is
  /// armed).
  [[nodiscard]] bool certified(sim::Cycle cycle, uint64_t digest) const;

  platform::ReferenceBoard& board_;
  sim::Cycle interval_;
  size_t ring_;
  bool auto_recover_;
  std::deque<Checkpoint> checkpoints_;
  Trail trail_;
  Trail expected_;
  size_t recoveries_ = 0;
  size_t divergences_ = 0;
};

}  // namespace cabt::snap
