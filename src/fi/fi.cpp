#include "fi/fi.h"

#include <algorithm>
#include <climits>
#include <cstdint>

#include "common/error.h"
#include "common/strutil.h"
#include "platform/platform.h"

namespace cabt::fi {

namespace {

FaultKind parseKind(std::string_view s) {
  if (s == "dreg") return FaultKind::kDataRegFlip;
  if (s == "areg") return FaultKind::kAddrRegFlip;
  if (s == "pc") return FaultKind::kPcFlip;
  if (s == "pcset") return FaultKind::kPcSet;
  if (s == "mem") return FaultKind::kMemFlip;
  if (s == "buserr") return FaultKind::kBusError;
  if (s == "stall") return FaultKind::kDeviceStall;
  CABT_FAIL("unknown fault kind '" << std::string(s)
                                   << "' (dreg/areg/pc/pcset/mem/buserr/"
                                      "stall)");
}

}  // namespace

FaultSpec parseFaultSpec(const std::string& spec) {
  const size_t at = spec.find('@');
  CABT_CHECK(at != std::string::npos,
             "fault spec '" << spec << "' has no '@cycle' (expected "
                            << "kind@cycle:key=value,...)");
  FaultSpec f;
  f.kind = parseKind(trim(std::string_view(spec).substr(0, at)));
  std::string_view rest = std::string_view(spec).substr(at + 1);
  const size_t colon = rest.find(':');
  f.cycle = parseUnsigned(trim(rest.substr(0, colon)), "fault cycle");
  if (colon != std::string_view::npos) {
    for (std::string_view kv : split(rest.substr(colon + 1), ',')) {
      kv = trim(kv);
      if (kv.empty()) {
        continue;
      }
      const size_t eq = kv.find('=');
      CABT_CHECK(eq != std::string_view::npos,
                 "fault field '" << std::string(kv) << "' has no '='");
      const std::string_view key = trim(kv.substr(0, eq));
      const std::string_view val = trim(kv.substr(eq + 1));
      if (key == "core") {
        f.core = parseUnsigned(val, key, SIZE_MAX);
      } else if (key == "index") {
        f.index = static_cast<unsigned>(parseUnsigned(val, key, UINT_MAX));
      } else if (key == "addr") {
        f.addr = static_cast<uint32_t>(parseUnsigned(val, key, UINT32_MAX));
      } else if (key == "hi") {
        f.addr_hi = static_cast<uint32_t>(parseUnsigned(val, key, UINT32_MAX));
      } else if (key == "mask") {
        f.mask = static_cast<uint32_t>(parseUnsigned(val, key, UINT32_MAX));
      } else if (key == "until") {
        f.until = parseUnsigned(val, key);
      } else if (key == "count") {
        f.count = static_cast<uint32_t>(parseUnsigned(val, key, UINT32_MAX));
      } else if (key == "device") {
        f.device = std::string(val);
      } else {
        CABT_FAIL("unknown fault field '" << std::string(key) << "'");
      }
    }
  }
  return f;
}

void Campaign::arm(platform::ReferenceBoard& board) {
  CABT_CHECK(board_ == nullptr, "campaign is already armed");
  // The checks against the board come first, on the spec's own field
  // widths (before anything narrows them). A stall is a silent window
  // over the device's bus range, resolved here and armed last.
  soc::SocBus& bus = board.board().bus;
  std::vector<soc::BusFaultWindow> stalls;
  for (const FaultSpec& spec : specs_) {
    CABT_CHECK(spec.core < board.numCores(),
               "fault core " << spec.core << " is out of range for a "
                             << board.numCores() << "-core board");
    if (spec.kind == FaultKind::kDataRegFlip ||
        spec.kind == FaultKind::kAddrRegFlip) {
      CABT_CHECK(spec.index < 16,
                 "fault register index out of range: " << spec.index);
    }
    if (spec.kind == FaultKind::kDeviceStall) {
      CABT_CHECK(!spec.device.empty(), "stall fault needs device=<name>");
      const auto [lo, hi] = bus.deviceRange(spec.device);
      soc::BusFaultWindow w;
      w.lo = lo;
      w.hi = hi;
      w.from = spec.cycle;
      w.until = spec.until;
      w.poison = 0;
      stalls.push_back(std::move(w));
    }
  }
  board_ = &board;
  injectors_.clear();
  for (size_t i = 0; i < board.numCores(); ++i) {
    injectors_.push_back(std::make_unique<CoreInjector>());
    board.core(i).setInjector(injectors_.back().get());
  }
  for (const FaultSpec& spec : specs_) {
    switch (spec.kind) {
      case FaultKind::kDataRegFlip:
      case FaultKind::kAddrRegFlip:
      case FaultKind::kPcFlip:
      case FaultKind::kPcSet:
      case FaultKind::kMemFlip: {
        CoreFault f;
        f.cycle = spec.cycle;
        f.index = static_cast<uint8_t>(spec.index);
        f.addr = spec.addr;
        f.mask = spec.mask;
        switch (spec.kind) {
          case FaultKind::kDataRegFlip:
            f.kind = CoreFaultKind::kDataReg;
            break;
          case FaultKind::kAddrRegFlip:
            f.kind = CoreFaultKind::kAddrReg;
            break;
          case FaultKind::kPcFlip:
            f.kind = CoreFaultKind::kPc;
            CABT_CHECK(spec.mask != 0, "pc flip needs a nonzero mask");
            break;
          case FaultKind::kPcSet:
            f.kind = CoreFaultKind::kPc;
            f.mask = 0;  // mask == 0 means "set pc = addr"
            break;
          default:
            f.kind = CoreFaultKind::kMemWord;
            break;
        }
        injectors_.at(spec.core)->schedule(f);
        break;
      }
      case FaultKind::kBusError: {
        soc::BusFaultWindow w;
        w.lo = spec.addr;
        w.hi = spec.addr_hi != 0 ? spec.addr_hi : spec.addr + 3;
        w.from = spec.cycle;
        w.until = spec.until;
        w.max_fires = spec.count;
        // The guest-visible consequence: the precise bus-error trap,
        // raised on the faulted core's controller and delivered (like
        // every interrupt) at its next block boundary. Sequential drain
        // only, so recording the fire here is race-free.
        soc::InterruptController* intc = &board.intc(spec.core);
        const size_t core = spec.core;
        w.on_error = [this, intc, core](const soc::Transaction& t) {
          intc->raise(platform::kBusErrorIrqLine);
          bus_fires_.push_back({core, {t.soc_cycle, t.addr}});
        };
        bus.armBusFault(std::move(w));
        break;
      }
      case FaultKind::kDeviceStall:
        break;  // armed below
    }
  }
  // The bus takes the first matching window, so arming the stalls after
  // every bus-error window makes an error win over a stall on the same
  // access.
  stall_windows_first_ = bus.busFaults().size();
  for (soc::BusFaultWindow& w : stalls) {
    bus.armBusFault(std::move(w));
  }
  stall_windows_end_ = bus.busFaults().size();
}

void Campaign::disarm() {
  if (board_ == nullptr) {
    return;
  }
  for (size_t i = 0; i < board_->numCores(); ++i) {
    board_->core(i).setInjector(nullptr);
  }
  board_->board().bus.clearBusFaults();
  board_ = nullptr;
}

uint64_t Campaign::firedCount() const {
  uint64_t n = 0;
  for (const auto& inj : injectors_) {
    n += inj->fired().size();
  }
  return n;
}

void Campaign::publishMetrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const {
  reg.setCounter(prefix + "faults_scheduled", specs_.size());
  reg.setCounter(prefix + "core_faults_fired", firedCount());
  reg.setCounter(prefix + "bus_error_fires", bus_fires_.size());
  if (board_ != nullptr) {
    const std::vector<soc::BusFaultWindow>& windows =
        board_->board().bus.busFaults();
    uint64_t stalled = 0;
    for (size_t i = stall_windows_first_; i < stall_windows_end_; ++i) {
      stalled += windows[i].fires;
    }
    reg.setCounter(prefix + "device_stall_hits", stalled);
  }
}

void Campaign::emitTrace(obs::TraceSink& sink) const {
  for (size_t core = 0; core < injectors_.size(); ++core) {
    for (const FiredFault& f : injectors_[core]->fired()) {
      sink.instant(obs::coreLane(core), "fault", f.at, "pc", f.pc);
    }
  }
  for (const auto& [core, fire] : bus_fires_) {
    sink.instant(obs::coreLane(core), "bus_error", fire.first, "addr",
                 fire.second);
  }
}

}  // namespace cabt::fi
