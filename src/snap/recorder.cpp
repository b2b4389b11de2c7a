#include "snap/recorder.h"

#include <algorithm>

#include "snap/snapshot.h"

namespace cabt::snap {

Recorder::Recorder(platform::ReferenceBoard& board, sim::Cycle interval,
                   size_t ring, bool auto_recover)
    : board_(board),
      interval_(interval),
      ring_(ring),
      auto_recover_(auto_recover) {
  CABT_CHECK(interval >= 1 && ring >= 1,
             "a recorder needs an interval of at least one cycle and a "
             "ring of at least one snapshot");
}

sim::Cycle Recorder::runTo(sim::Cycle limit) {
  sim::Kernel& kernel = board_.kernel();
  const auto watchdog_fires = [this] {
    return board_.hasWatchdog() ? board_.watchdog().fired() : 0;
  };
  // Each chunk boundary lies strictly above the earliest pending event,
  // so every iteration dispatches at least one event.
  while (!kernel.idle() && kernel.nextEventAt() <= limit) {
    const sim::Cycle base = std::max(kernel.now(), kernel.nextEventAt());
    sim::Cycle next = base - base % interval_ + interval_;
    if (next < base) {  // overflow near the end of the timebase
      next = limit;
    }
    const sim::Cycle chunk = std::min(next, limit);
    const uint64_t fires = watchdog_fires();
    board_.runTo(chunk);
    const bool fired = watchdog_fires() != fires;
    const bool poisoned =
        kernel.idle() ? fired : takeCheckpoint(chunk, fired);
    if (poisoned && auto_recover_ && recoveries_ < kMaxAutoRecoveries) {
      // Graceful degradation between chunks: rewind to the newest intact
      // ring entry and replay. A consumed one-shot fault does not
      // re-fire, so the replayed timeline converges on the clean run; a
      // deterministic hang recovers identically every time, which is why
      // kMaxAutoRecoveries bounds the loop (beyond it the board runs on
      // degraded).
      const RecoveryReport rep = recover();
      CABT_CHECK(rep.recovered,
                 "auto-recovery exhausted the snapshot ring: " << rep.detail);
      continue;  // resume from the restored (earlier) time
    }
    if (chunk >= limit) {
      break;
    }
  }
  return kernel.now();
}

bool Recorder::certified(sim::Cycle cycle, uint64_t digest) const {
  if (expected_.empty()) {
    return true;
  }
  const auto it = std::lower_bound(
      expected_.begin(), expected_.end(), cycle,
      [](const auto& e, sim::Cycle c) { return e.first < c; });
  return it != expected_.end() && it->first == cycle && it->second == digest;
}

bool Recorder::takeCheckpoint(sim::Cycle cycle, bool fired) {
  const uint64_t digest = snap::digest(board_);
  obs::TraceSink* sink = board_.traceSink();
  // A cycle with no trail entry at all (the run kept going past the
  // certified horizon, e.g. a hung guest) counts as diverged too.
  if (!certified(cycle, digest)) {
    ++divergences_;
    if (sink != nullptr) {
      sink->instant(obs::kSnapLane, "divergence", cycle, "trail",
                    trail_.size());
    }
    return true;
  }
  if (fired) {
    return true;
  }
  checkpoints_.push_back({cycle, digest, save(board_)});
  while (checkpoints_.size() > ring_) {
    checkpoints_.pop_front();
  }
  trail_.emplace_back(cycle, digest);
  if (sink != nullptr) {
    // Between run() chunks, so the sequential path the sink requires.
    sink->instant(obs::kSnapLane, "checkpoint", cycle, "trail",
                  trail_.size());
  }
  return false;
}

RecoveryReport Recorder::recover() {
  RecoveryReport rep;
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    ++rep.entries_tried;
    const auto skip = [&rep, &it](size_t& count, const char* why) {
      ++count;
      rep.detail += "cp@" + std::to_string(it->cycle) + ": " + why + "; ";
    };
    // restore verifies the integrity footer before mutating any state,
    // so a corrupt entry leaves the board exactly as it was.
    try {
      restore(board_, it->data);
    } catch (const Error& e) {
      skip(rep.entries_corrupt, e.what());
      continue;
    }
    const uint64_t digest = snap::digest(board_);
    if (digest != it->digest) {
      skip(rep.entries_diverged, "digest mismatch");
      continue;
    }
    // With an expected trail, only rewind to a point it certifies: an
    // entry checkpointed after the run left the certified timeline
    // restores fine and reproduces its own recorded digest, but resuming
    // there would replay the failure.
    if (!certified(it->cycle, digest)) {
      skip(rep.entries_diverged, "off the expected trail");
      continue;
    }
    // Restored and verified: discard the invalidated newer timeline.
    const sim::Cycle cycle = it->cycle;  // erase invalidates `it`
    checkpoints_.erase(it.base(), checkpoints_.end());
    while (!trail_.empty() && trail_.back().first > cycle) {
      trail_.pop_back();
    }
    ++recoveries_;
    rep.recovered = true;
    rep.resume_cycle = cycle;
    rep.digest = digest;
    if (obs::TraceSink* sink = board_.traceSink(); sink != nullptr) {
      sink->instant(obs::kSnapLane, "recover", cycle, "tried",
                    rep.entries_tried);
    }
    return rep;
  }
  if (rep.detail.empty()) {
    rep.detail = "snapshot ring is empty";
  }
  return rep;
}

void Recorder::publishMetrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const {
  reg.setCounter(prefix + "snap.checkpoints_retained", checkpoints_.size());
  reg.setCounter(prefix + "snap.trail_length", trail_.size());
  if (!trail_.empty()) {
    reg.setGauge(prefix + "snap.last_checkpoint_cycle",
                 static_cast<double>(trail_.back().first));
  }
  reg.setCounter(prefix + "fi.recoveries", recoveries_);
  reg.setCounter(prefix + "fi.divergences", divergences_);
}

}  // namespace cabt::snap
