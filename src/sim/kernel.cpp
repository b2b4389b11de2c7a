#include "sim/kernel.h"

namespace cabt::sim {

void Kernel::saveState(
    serial::Writer& w,
    const std::function<uint32_t(Process*)>& index_of) const {
  w.tag("kernel");
  w.u64(now_);
  w.u64(quantum_);
  w.u64(seq_);
  w.u64(dispatched_);
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

Cycle Kernel::run(Cycle limit) {
  while (!queue_.empty() && queue_.front().at <= limit) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    const Ev ev = queue_.back();
    queue_.pop_back();
    if (ev.at > now_) {
      now_ = ev.at;
    }
    ++dispatched_;
    ev.proc->activate(*this);
  }
  return now_;
}

void Kernel::publishMetrics(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.setCounter(prefix + "events_dispatched", dispatched_);
  reg.setGauge(prefix + "now", static_cast<double>(now_));
  reg.setGauge(prefix + "queue_depth", static_cast<double>(queue_.size()));
  reg.setGauge(prefix + "quantum", static_cast<double>(quantum_));
}

}  // namespace cabt::sim
