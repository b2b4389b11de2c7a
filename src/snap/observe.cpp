#include "snap/observe.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "snap/snapshot.h"

namespace cabt::snap {

namespace {

constexpr const char* kStopNames[] = {"running", "halted", "breakpoint",
                                      "max_instructions", "cycle_limit"};
static_assert(std::size(kStopNames) ==
              static_cast<size_t>(iss::StopReason::kCycleLimit) + 1);

/// The board-level counters, in comparison order.
constexpr std::pair<const char*, uint64_t Observation::*> kBoardCounters[] = {
    {"bus cycle", &Observation::bus_cycle},
    {"ptimer expiries", &Observation::ptimer_expiries},
    {"mailbox pushes", &Observation::mailbox_pushes},
    {"mailbox dropped", &Observation::mailbox_dropped},
    {"mailbox depth", &Observation::mailbox_depth},
    {"kernel events", &Observation::kernel_events},
};

/// "<what> <got> != <want>".
std::string differs(const std::string& what, uint64_t got, uint64_t want,
                    bool hex = false) {
  std::ostringstream out;
  out << what << ' ';
  if (hex) {
    out << std::hex << "0x" << got << " != 0x" << want;
  } else {
    out << got << " != " << want;
  }
  return out.str();
}

std::string coreAt(size_t i) { return "core " + std::to_string(i) + " "; }

/// pc, then d0-d15, then a0-a15.
std::string registerMismatch(const std::string& where,
                             const CoreObservation& want,
                             const CoreObservation& got) {
  if (got.pc != want.pc) {
    return differs(where + "pc", got.pc, want.pc, true);
  }
  for (size_t r = 0; r < 16; ++r) {
    if (got.d[r] != want.d[r]) {
      return differs(where + "d" + std::to_string(r), got.d[r], want.d[r],
                     true);
    }
  }
  for (size_t r = 0; r < 16; ++r) {
    if (got.a[r] != want.a[r]) {
      return differs(where + "a" + std::to_string(r), got.a[r], want.a[r],
                     true);
    }
  }
  return "";
}

std::string coreMismatch(const std::string& where,
                         const CoreObservation& want,
                         const CoreObservation& got) {
  if (got.stop != want.stop) {
    return where + "stop " + kStopNames[static_cast<size_t>(got.stop)] +
           " != " + kStopNames[static_cast<size_t>(want.stop)];
  }
  std::string diff = registerMismatch(where, want, got);
  if (!diff.empty()) {
    return diff;
  }
  for (const iss::StatCounter& c : iss::kArchitecturalCounters) {
    if (got.stats.*c.field != want.stats.*c.field) {
      return differs(where + c.name, got.stats.*c.field,
                     want.stats.*c.field);
    }
  }
  const size_t irqs = std::min(got.irq_times.size(), want.irq_times.size());
  for (size_t k = 0; k < irqs; ++k) {
    if (got.irq_times[k] != want.irq_times[k]) {
      return differs(where + "irq " + std::to_string(k) + " delivered at",
                     got.irq_times[k], want.irq_times[k]);
    }
  }
  if (got.irq_times.size() != want.irq_times.size()) {
    return differs(where + "irq deliveries", got.irq_times.size(),
                   want.irq_times.size());
  }
  if (got.intc_pending != want.intc_pending) {
    return differs(where + "intc pending", got.intc_pending,
                   want.intc_pending, true);
  }
  if (got.intc_irqs_taken != want.intc_irqs_taken) {
    return differs(where + "intc irqs_taken", got.intc_irqs_taken,
                   want.intc_irqs_taken);
  }
  return "";
}

std::string transactionMismatch(size_t k, const soc::Transaction& want,
                                const soc::Transaction& got) {
  const std::string where = "bus txn " + std::to_string(k) + " ";
  if (got.soc_cycle != want.soc_cycle) {
    return differs(where + "soc_cycle", got.soc_cycle, want.soc_cycle);
  }
  if (got.addr != want.addr) {
    return differs(where + "addr", got.addr, want.addr, true);
  }
  if (got.value != want.value) {
    return differs(where + "value", got.value, want.value, true);
  }
  if (got.size != want.size) {
    return differs(where + "size", got.size, want.size);
  }
  return differs(where + "is_write", got.is_write, want.is_write);
}

}  // namespace

CoreObservation observe(const iss::Iss& core) {
  CoreObservation c;
  c.stop = core.stopReason();
  c.pc = core.pc();
  for (int r = 0; r < 16; ++r) {
    c.d[static_cast<size_t>(r)] = core.d(r);
    c.a[static_cast<size_t>(r)] = core.a(r);
  }
  c.stats = core.stats();
  return c;
}

Observation observe(platform::ReferenceBoard& board) {
  Observation o;
  o.cores.reserve(board.numCores());
  for (size_t i = 0; i < board.numCores(); ++i) {
    CoreObservation c = observe(board.core(i));
    c.irq_times = board.intc(i).deliveryTimes();
    c.intc_pending = board.intc(i).pending();
    c.intc_irqs_taken = board.intc(i).irqsTaken();
    o.cores.push_back(std::move(c));
  }
  o.bus_cycle = board.board().bus.socCycle();
  o.bus_log = board.board().bus.log();
  o.ptimer_expiries = board.ptimer().expiries();
  o.mailbox_pushes = board.mailbox().pushes();
  o.mailbox_dropped = board.mailbox().dropped();
  o.mailbox_depth = board.mailbox().depth();
  for (size_t r = 0; r < o.scratch.size(); ++r) {
    o.scratch[r] = board.board().scratch.reg(r);
  }
  o.kernel_events = board.kernel().eventsDispatched();
  o.digest = digest(board);
  return o;
}

std::string firstMismatch(const CoreObservation& want,
                          const CoreObservation& got) {
  return coreMismatch("", want, got);
}

std::string firstMismatch(const Observation& want, const Observation& got) {
  if (got.cores.size() != want.cores.size()) {
    return differs("core count", got.cores.size(), want.cores.size());
  }
  for (size_t i = 0; i < want.cores.size(); ++i) {
    std::string diff = coreMismatch(coreAt(i), want.cores[i], got.cores[i]);
    if (!diff.empty()) {
      return diff;
    }
  }
  const size_t txns = std::min(got.bus_log.size(), want.bus_log.size());
  for (size_t k = 0; k < txns; ++k) {
    if (got.bus_log[k] != want.bus_log[k]) {
      return transactionMismatch(k, want.bus_log[k], got.bus_log[k]);
    }
  }
  if (got.bus_log.size() != want.bus_log.size()) {
    return differs("bus log length", got.bus_log.size(),
                   want.bus_log.size());
  }
  for (size_t r = 0; r < want.scratch.size(); ++r) {
    if (got.scratch[r] != want.scratch[r]) {
      return differs("scratch " + std::to_string(r), got.scratch[r],
                     want.scratch[r], true);
    }
  }
  for (const auto& [name, field] : kBoardCounters) {
    if (got.*field != want.*field) {
      return differs(name, got.*field, want.*field);
    }
  }
  if (got.digest != want.digest) {
    return differs("digest", got.digest, want.digest, true);
  }
  return "";
}

std::string firstFunctionalMismatch(const Observation& want,
                                    const Observation& got) {
  if (got.cores.size() != want.cores.size()) {
    return differs("core count", got.cores.size(), want.cores.size());
  }
  for (size_t i = 0; i < want.cores.size(); ++i) {
    const CoreObservation& w = want.cores[i];
    const CoreObservation& g = got.cores[i];
    for (const iss::StatCounter& c : iss::kArchitecturalCounters) {
      const bool functional = c.field == &iss::IssStats::instructions ||
                              c.field == &iss::IssStats::io_reads ||
                              c.field == &iss::IssStats::io_writes;
      if (functional && g.stats.*c.field != w.stats.*c.field) {
        return differs(coreAt(i) + c.name, g.stats.*c.field,
                       w.stats.*c.field);
      }
    }
    std::string diff = registerMismatch(coreAt(i), w, g);
    if (!diff.empty()) {
      return diff;
    }
  }
  return "";
}

std::array<GridPoint, 2> engineGrid(xlat::DetailLevel level) {
  return {{{level, false}, {level, true}}};
}

std::string gridPointName(const GridPoint& p) {
  return p.threaded ? "threaded" : "step";
}

platform::BoardConfig boardConfigFor(const GridPoint& p,
                                     platform::BoardConfig base) {
  base.iss = platform::issConfigFor(p.level, base.iss);
  base.iss.use_block_cache = p.threaded;
  return base;
}

std::unique_ptr<platform::ReferenceBoard> makeBoard(
    const workloads::BoardImages& images, const GridPoint& point,
    platform::BoardConfig base) {
  static const arch::ArchDescription desc =
      arch::ArchDescription::defaultTc10gp();
  base.iss.extra_leaders.insert(base.iss.extra_leaders.end(),
                                images.extraLeaders().begin(),
                                images.extraLeaders().end());
  return std::make_unique<platform::ReferenceBoard>(
      desc, images.ptrs(), boardConfigFor(point, base));
}

}  // namespace cabt::snap
