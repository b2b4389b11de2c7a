// Host worker-thread pool with a batch barrier, used by the fleet
// driver's board scheduling (src/fleet). One batch = one runAll(n, fn)
// call: the workers *and* the calling thread pull indices until the
// batch is empty, and runAll returns only after every task finished
// (the barrier). The mutex hand-off establishes the
// happens-before edge that makes all task-side state visible to the
// caller after the barrier.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace cabt::sim {

class HostPool {
 public:
  /// Spawns `workers` threads. Zero is valid: runAll degenerates to a
  /// plain sequential loop on the calling thread with no thread traffic
  /// at all (single-core hosts).
  explicit HostPool(unsigned workers);
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Runs fn(0) .. fn(n-1), distributed over the workers plus the
  /// calling thread, and returns after the last one completed. The
  /// first exception any task throws is rethrown here after the
  /// barrier. Not reentrant: one batch at a time per pool.
  void runAll(size_t n, const std::function<void(size_t)>& fn);

  /// Worker threads only (the calling thread participates too, so the
  /// effective parallelism of runAll is workers() + 1).
  [[nodiscard]] unsigned workers() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cabt::sim
