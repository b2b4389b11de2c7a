#include "sim/kernel.h"

#include <thread>

#include "sim/host_pool.h"

namespace cabt::sim {

Kernel::Kernel(Cycle quantum) : quantum_(quantum) {
  CABT_CHECK(quantum_ >= 1, "quantum must be >= 1");
}

Kernel::~Kernel() = default;

void Kernel::saveState(
    serial::Writer& w,
    const std::function<uint32_t(Process*)>& index_of) const {
  w.tag("kernel");
  w.u64(now_);
  w.u64(quantum_);
  w.u64(seq_);
  w.u64(dispatched_);
  w.u64(rounds_);
  w.u64(prefixes_);
  // Canonical event order (the comparator's total order), so the bytes
  // do not depend on the incidental heap layout.
  std::vector<Ev> sorted = queue_;
  std::sort(sorted.begin(), sorted.end(), [](const Ev& a, const Ev& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  w.u32(static_cast<uint32_t>(sorted.size()));
  for (const Ev& ev : sorted) {
    w.u64(ev.at);
    w.u64(ev.seq);
    w.u32(index_of(ev.proc));
  }
}

void Kernel::restoreState(
    serial::Reader& r,
    const std::function<Process*(uint32_t)>& process_at) {
  r.tag("kernel");
  now_ = r.u64();
  const uint64_t quantum = r.u64();
  CABT_CHECK(quantum == quantum_,
             "snapshot quantum " << quantum << " does not match this "
                                 << "kernel's " << quantum_);
  seq_ = r.u64();
  dispatched_ = r.u64();
  rounds_ = r.u64();
  prefixes_ = r.u64();
  queue_.clear();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    Ev ev;
    ev.at = r.u64();
    ev.seq = r.u64();
    ev.proc = process_at(r.u32());
    CABT_CHECK(ev.proc != nullptr, "snapshot names an unknown process");
    queue_.push_back(ev);
  }
  std::make_heap(queue_.begin(), queue_.end(), Later{});
}

void Kernel::dispatchOne() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Ev ev = queue_.back();
  queue_.pop_back();
  if (ev.at > now_) {
    now_ = ev.at;
  }
  ++dispatched_;
  ev.proc->activate(*this);
}

Cycle Kernel::run(Cycle limit) {
  return parallel_.enabled ? runParallelRounds(limit) : runSequential(limit);
}

Cycle Kernel::runSequential(Cycle limit) {
  while (!queue_.empty() && queue_.front().at <= limit) {
    dispatchOne();
  }
  return now_;
}

void Kernel::runPrefixes(const std::vector<Process*>& ready) {
  if (ready.empty()) {
    return;
  }
  ++rounds_;
  prefixes_ += ready.size();
  if (ready.size() == 1) {
    ready.front()->parallelPrefix(quantum_);
    return;
  }
  if (pool_ == nullptr) {
    unsigned workers = parallel_.workers;
    if (workers == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      workers = hw > 1 ? hw - 1 : 0;  // the caller is a prefix runner too
    }
    pool_ = std::make_unique<HostPool>(std::min(workers, 16u));
  }
  // One round = one barriered batch of quantum-bounded prefixes; the
  // mutex hand-off inside the pool makes all prefix state visible to
  // the sequential drain that follows.
  pool_->runAll(ready.size(),
                [&ready, this](size_t i) { ready[i]->parallelPrefix(quantum_); });
}

Cycle Kernel::runParallelRounds(Cycle limit) {
  std::vector<Process*> ready;
  while (!queue_.empty() && queue_.front().at <= limit) {
    // One round: [start, start + quantum). Every process syncs at least
    // one quantum ahead of its activation time, so each participates in
    // at most one activation per round and a prefix run now is consumed
    // by an activation in this round's drain (prefixes are only taken
    // from events at <= limit, which the drain is guaranteed to reach).
    const Cycle start = queue_.front().at;
    const Cycle round_end =
        start > kForever - quantum_ ? kForever : start + quantum_;
    ready.clear();
    for (const Ev& ev : queue_) {
      if (ev.at >= round_end || ev.at > limit || !ev.proc->parallelReady()) {
        continue;
      }
      // Defensive de-dup: a process with several queued activations runs
      // one prefix only (the first activation consumes it).
      if (std::find(ready.begin(), ready.end(), ev.proc) == ready.end()) {
        ready.push_back(ev.proc);
      }
    }
    runPrefixes(ready);
    // Sequential drain: the exact pop-min order of the sequential
    // kernel, including events pushed while draining that still fall
    // inside this round's window.
    while (!queue_.empty() && queue_.front().at < round_end &&
           queue_.front().at <= limit) {
      dispatchOne();
    }
    if (trace_sink_ != nullptr) {
      // After the drain, on the dispatch thread: direct emission is the
      // sequential path the sink's threading contract requires.
      const Cycle span_end = round_end == kForever ? now_ : round_end;
      trace_sink_->complete(obs::kKernelLane, "round", start,
                            span_end > start ? span_end - start : 0,
                            "prefixes", ready.size());
    }
    if (round_end == kForever) {
      break;  // the window was unbounded: everything already drained
    }
  }
  return now_;
}

void Kernel::publishMetrics(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.setCounter(prefix + "events_dispatched", dispatched_);
  reg.setCounter(prefix + "parallel_rounds", rounds_);
  reg.setCounter(prefix + "parallel_prefixes", prefixes_);
  reg.setGauge(prefix + "now", static_cast<double>(now_));
  reg.setGauge(prefix + "queue_depth", static_cast<double>(queue_.size()));
  reg.setGauge(prefix + "quantum", static_cast<double>(quantum_));
}

}  // namespace cabt::sim
