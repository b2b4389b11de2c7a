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
// Parallel rounds (ParallelConfig, DESIGN.md section 7): temporal
// decoupling makes processes independent *between* sync points, so the
// kernel can optionally run the private-footprint prefix of every
// upcoming quantum slice concurrently on a worker-thread pool, then
// finish the round with the exact sequential dispatch order — every
// shared-state touch (bus transaction, interrupt delivery) still happens
// at its sequential position, so the run is bit-identical to the
// sequential kernel by construction (tests/parallel_test.cpp proves it
// over the full scenario grid).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "sim/host_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cabt::sim {

/// Identifies the prefix-runner thread the caller is on: 0 for the
/// dispatching (sequential) thread, 1 + i for pool worker i. Worker-side
/// observability code uses it to pick a trace lane
/// (obs::workerLane(currentWorkerId())). Declared in sim/host_pool.h —
/// the pool implementation is shared with the fleet driver.

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

  // -- parallel-round support (Kernel::ParallelConfig) ------------------
  //
  // A process that returns true from parallelReady() may have
  // parallelPrefix() invoked on a worker thread *before* its sequential
  // dispatch slot in the current round. The prefix must touch only
  // process-private state (it runs concurrently with other prefixes and
  // must stop — "bail" — just before the first access to anything
  // shared). The subsequent activate() runs at the normal sequential
  // slot, consumes the prefix and finishes whatever the prefix bailed
  // on. A ready process must have exactly one queued activation, and its
  // private state must not be mutated externally while a round is open.

  /// True when the process can speculatively run the private-footprint
  /// prefix of its next activation on a worker thread.
  [[nodiscard]] virtual bool parallelReady() const { return false; }

  /// Runs the private prefix of the next activation, up to `quantum`
  /// cycles of local time. Called on a worker thread; must not touch the
  /// kernel or any shared state.
  virtual void parallelPrefix(Cycle quantum) { (void)quantum; }

 private:
  std::string name_;
};

class Kernel {
 public:
  /// Parallel execution mode: each round, the private-footprint prefixes
  /// of all parallel-ready processes whose activations fall inside the
  /// round window run concurrently on a pool of worker threads; the
  /// round then drains sequentially in the exact (time, insertion)
  /// dispatch order, so all shared-state traffic — and therefore the
  /// whole simulation — is bit-identical to the sequential kernel.
  struct ParallelConfig {
    bool enabled = false;
    /// Worker threads in the pool, capped at 16 (boards top out well
    /// below that; a wider pool would only idle). The dispatching
    /// thread also executes prefixes while it waits at the round
    /// barrier, so the effective width is min(workers, 16) + 1; 0 picks
    /// hardware_concurrency() - 1 (one prefix runner per host core,
    /// barrier included).
    unsigned workers = 0;
  };

  /// `quantum` is the temporal-decoupling window: how far a process may
  /// run ahead of global time before it must sync().
  explicit Kernel(Cycle quantum = 1024);  // out of line: HostPool is incomplete
  ~Kernel();                              // joins the worker pool

  [[nodiscard]] Cycle quantum() const { return quantum_; }
  void setQuantum(Cycle q) {
    CABT_CHECK(q >= 1, "quantum must be >= 1");
    quantum_ = q;
  }

  /// Selects sequential (the default) or parallel-round execution. Call
  /// before run(); the worker pool is created lazily on the first round
  /// that has more than one prefix to run.
  void setParallel(const ParallelConfig& config) { parallel_ = config; }
  [[nodiscard]] const ParallelConfig& parallel() const { return parallel_; }

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

  /// Timestamp of the earliest pending event, or kForever when idle (the
  /// platform's checkpointing loop sizes its chunks from this).
  [[nodiscard]] Cycle nextEventAt() const {
    return queue_.empty() ? kForever : queue_.front().at;
  }

  /// Dispatches events in (time, insertion) order until the queue is
  /// empty or the next event lies beyond `limit`. Returns global time.
  /// With ParallelConfig enabled the dispatch order — and therefore the
  /// simulation — is unchanged; only private prefixes overlap.
  Cycle run(Cycle limit = kForever);

  [[nodiscard]] uint64_t eventsDispatched() const { return dispatched_; }
  /// Parallel-round accounting: rounds that ran at least one prefix, and
  /// total prefixes handed to the pool (the bench's utilisation signal).
  [[nodiscard]] uint64_t parallelRounds() const { return rounds_; }
  [[nodiscard]] uint64_t parallelPrefixes() const { return prefixes_; }

  // -- observability (src/obs, DESIGN.md section 11) --------------------

  /// Attaches a timeline sink; the kernel emits one "round" span on
  /// obs::kKernelLane per parallel round (after its sequential drain, so
  /// the emission itself is single-threaded). Pass nullptr to detach.
  /// Observers never feed back: attaching a sink cannot change dispatch.
  void setTraceSink(obs::TraceSink* sink) { trace_sink_ = sink; }

  /// Publishes the dispatch tallies under `prefix` (e.g. "board.kernel."):
  /// events_dispatched, parallel_rounds, parallel_prefixes counters plus
  /// now / queue_depth / quantum gauges.
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // The queue holds the process phases of the platform: one pending
  // activation time per live process. Processes are identified through
  // the caller's mapping (the platform owns the process list and its
  // order). Snapshots are taken between run() calls only — never inside
  // a parallel round (no round is open then, so no prefix state exists
  // outside the queue).

  /// Saves global time, the dispatch counters and every queued event as
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
  /// Dispatches the front event (pop-min in (time, insertion) order).
  void dispatchOne();
  Cycle runSequential(Cycle limit);
  Cycle runParallelRounds(Cycle limit);
  /// Runs the round's prefixes (on the pool when more than one).
  void runPrefixes(const std::vector<Process*>& ready);

  /// Min-heap over (at, seq) kept in a plain vector so the parallel
  /// round scheduler can scan the pending events without popping them.
  /// Heap layout is irrelevant to behaviour: dispatch order is the
  /// comparator's total order either way.
  std::vector<Ev> queue_;
  Cycle now_ = 0;
  Cycle quantum_;
  uint64_t seq_ = 0;
  uint64_t dispatched_ = 0;
  ParallelConfig parallel_;
  std::unique_ptr<HostPool> pool_;  // shared worker-pool impl (host_pool.h)
  uint64_t rounds_ = 0;
  uint64_t prefixes_ = 0;
  obs::TraceSink* trace_sink_ = nullptr;  ///< never serialized
};

}  // namespace cabt::sim
