// Discrete-event simulation kernel with temporal decoupling.
//
// The paper's accelerated processor model is one component inside a
// SystemC SoC simulation (section 1, Fig. 1). This kernel plays the role
// of the SystemC scheduler for the reproduction, in the loosely-timed
// TLM-2.0 style that keeps binary-translation speed:
//
//   * one 64-bit cycle timebase (SoC cycles on the reference board; the
//     kernel itself is unit-agnostic);
//   * a queue of process activations dispatched in (time, insertion-
//     order) order, so runs are deterministic for a fixed configuration;
//   * processes that own *local* time and run ahead of global time by up
//     to one quantum before yielding back via sync() — temporal
//     decoupling. The scheduler always activates the process with the
//     smallest wake time, so no process ever observes another more than
//     one quantum behind it.
//
// Shared state (the SoC bus and its devices) advances *lazily* to a
// transaction's timestamp (soc::SocBus::advanceTo), so a process slice
// costs O(work), not O(cycles). With a single initiator the simulation is
// exactly quantum-invariant (checked by tests/sim_test.cpp); with
// multiple initiators the quantum bounds cross-core visibility latency —
// the speed/accuracy knob of bench_sim_quantum, generalizing the sync-
// rate ablation.
//
// The kernel is sequential: one dispatch loop on the calling thread
// (DESIGN.md section 7 records why).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "obs/metrics.h"

namespace cabt::sim {

/// Kernel time, in cycles of the hosting platform's clock.
using Cycle = uint64_t;
inline constexpr Cycle kForever = ~static_cast<Cycle>(0);

class Kernel;

/// A schedulable process: anything that owns local time and runs in
/// quantum-bounded slices (a processor core, a DMA engine, a test stub).
class Process {
 public:
  explicit Process(std::string name) : name_(std::move(name)) {}
  virtual ~Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// One activation at the process's wake time. The body runs up to the
  /// kernel's quantum, then either calls kernel.sync(this, t) to yield
  /// until its local time t, or returns without rescheduling to finish.
  virtual void activate(Kernel& kernel) = 0;

 private:
  std::string name_;
};

class Kernel {
 public:
  /// `quantum` is the temporal-decoupling window: how far a process may
  /// run ahead of global time before it must sync().
  explicit Kernel(Cycle quantum = 1024) : quantum_(quantum) {
    CABT_CHECK(quantum_ >= 1, "quantum must be >= 1");
  }

  [[nodiscard]] Cycle quantum() const { return quantum_; }
  void setQuantum(Cycle q) {
    CABT_CHECK(q >= 1, "quantum must be >= 1");
    quantum_ = q;
  }

  /// Global time: the timestamp of the event being (or last) dispatched.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Registers a process and schedules its first activation at `start`.
  void addProcess(Process* p, Cycle start = 0) {
    CABT_CHECK(p != nullptr, "null process");
    push(start, p);
  }

  /// From inside activate(): yield and resume at absolute local time
  /// `at`. Times before now() are clamped (the process fell behind global
  /// time).
  void sync(Process* p, Cycle at) {
    CABT_CHECK(p != nullptr, "null process");
    push(at < now_ ? now_ : at, p);
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Timestamp of the earliest pending event, or kForever when idle
  /// (snap::Recorder sizes its checkpoint chunks from this).
  [[nodiscard]] Cycle nextEventAt() const {
    return queue_.empty() ? kForever : queue_.front().at;
  }

  /// Dispatches events in (time, insertion) order until the queue is
  /// empty or the next event lies beyond `limit`. Returns global time.
  Cycle run(Cycle limit = kForever);

  [[nodiscard]] uint64_t eventsDispatched() const { return dispatched_; }

  // -- observability (src/obs, DESIGN.md section 11) --------------------

  /// Publishes the dispatch tallies under `prefix` (e.g. "board.kernel."):
  /// the events_dispatched counter plus now / queue_depth / quantum
  /// gauges.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // The queue holds the process phases of the platform: one pending
  // activation time per live process. Processes are identified through
  // the caller's mapping (the platform owns the process list and its
  // order). Snapshots are taken between run() calls only.

  /// Saves global time, the dispatch counter and every queued event as
  /// (time, insertion-order, process index).
  void saveState(serial::Writer& w,
                 const std::function<uint32_t(Process*)>& index_of) const;

  /// Replaces the queue and clock with a saved image; `process_at` must
  /// invert the mapping save used.
  void restoreState(serial::Reader& r,
                    const std::function<Process*(uint32_t)>& process_at);

 private:
  struct Ev {
    Cycle at = 0;
    uint64_t seq = 0;  ///< insertion order: deterministic tie-break
    Process* proc = nullptr;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void push(Cycle at, Process* proc) {
    queue_.push_back(Ev{at, seq_++, proc});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }
  /// Min-heap over (at, seq) kept in a plain vector so saveState can
  /// copy the pending events without popping them. Heap layout is
  /// irrelevant to behaviour: dispatch order is the comparator's total
  /// order either way.
  std::vector<Ev> queue_;
  Cycle now_ = 0;
  Cycle quantum_;
  uint64_t seq_ = 0;
  uint64_t dispatched_ = 0;
};

}  // namespace cabt::sim
