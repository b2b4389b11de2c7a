#include "platform/platform.h"

#include "common/strutil.h"

namespace cabt::platform {

EmulationPlatform::EmulationPlatform(const arch::ArchDescription& desc,
                                     const elf::Object& image,
                                     PlatformConfig config)
    : config_(config) {
  const MemRegion* io = desc.memory_map.findNamed("io");
  CABT_CHECK(io != nullptr, "architecture has no 'io' region");
  board_ = std::make_unique<soc::StandardPeripherals>(io->base);
  sync_ = std::make_unique<soc::SyncDevice>(&board_->bus,
                                            config_.vliw_cycles_per_soc_cycle);
  sync_handler_ = std::make_unique<SyncHandler>(sync_.get());
  bridge_ = std::make_unique<BridgeHandler>(&board_->bus, sync_.get(),
                                            io->base, io->size);
  sim_.loadProgram(image);
  if (const elf::Section* cache = image.findSection(".cachedata")) {
    cache_data_addr_ = cache->addr;
  }
  sim_.addIoHandler(sync_handler_.get());
  sim_.addIoHandler(bridge_.get());
  sim_.setClock([this](uint64_t cycles) { sync_->advanceTo(cycles); });
}

RunResult EmulationPlatform::run() {
  RunResult r;
  r.state = sim_.run(config_.max_cycles);
  r.vliw_cycles = sim_.stats().cycles;
  r.generated_cycles = sync_->totalGenerated();
  r.sync_stall_cycles = sim_.stats().stall_cycles;
  r.correction_cycles = sync_->correctionTotal();
  return r;
}

iss::IssConfig issConfigFor(xlat::DetailLevel level, iss::IssConfig base) {
  switch (level) {
    case xlat::DetailLevel::kFunctional:
      base.model_timing = false;
      break;
    case xlat::DetailLevel::kStatic:
      base.model_branch_extras = false;
      base.model_icache = false;
      break;
    case xlat::DetailLevel::kBranchPredict:
      base.model_icache = false;
      break;
    case xlat::DetailLevel::kICache:
      break;
  }
  return base;
}

uint32_t symbolAddr(const elf::Object& object, std::string_view symbol) {
  const elf::Symbol* sym = object.findSymbol(symbol);
  CABT_CHECK(sym != nullptr, "no symbol '" << std::string(symbol) << "'");
  return sym->value;
}

/// One ISS core as an event-kernel process: runs until its local time
/// reaches the next quantum boundary, then syncs; finishes (and stops
/// rescheduling) on any non-resumable stop.
class ReferenceBoard::CoreProcess : public sim::Process {
 public:
  CoreProcess(iss::Iss* core, std::string name)
      : sim::Process(std::move(name)), core_(core) {}

  void setTraceSink(obs::TraceSink* sink, uint32_t lane) {
    sink_ = sink;
    lane_ = lane;
  }

  void activate(sim::Kernel& kernel) override {
    const uint64_t t0 = core_->localTime();
    const iss::StopReason r =
        core_->runUntil(core_->localTime() + kernel.quantum());
    if (sink_ != nullptr) {
      sink_->complete(lane_, "slice", t0, core_->localTime() - t0);
    }
    if (r == iss::StopReason::kCycleLimit) {
      kernel.sync(this, core_->localTime());
    }
  }

 private:
  iss::Iss* core_;
  obs::TraceSink* sink_ = nullptr;
  uint32_t lane_ = 0;
};

ReferenceBoard::ReferenceBoard(const arch::ArchDescription& desc,
                               const elf::Object& object,
                               iss::IssConfig config) {
  BoardConfig cfg;
  cfg.iss = std::move(config);
  // A lone initiator is exactly quantum-invariant; a large quantum just
  // minimises kernel overhead.
  cfg.quantum = 65'536;
  init(desc, {&object}, cfg);
}

ReferenceBoard::ReferenceBoard(const arch::ArchDescription& desc,
                               const std::vector<const elf::Object*>& images,
                               BoardConfig config) {
  init(desc, images, config);
}

void ReferenceBoard::init(const arch::ArchDescription& desc,
                          const std::vector<const elf::Object*>& images,
                          const BoardConfig& config) {
  CABT_CHECK(!images.empty(), "reference board needs at least one core");
  soc::checkCoreCount(images.size(), "reference board");
  const MemRegion* io = desc.memory_map.findNamed("io");
  CABT_CHECK(io != nullptr, "architecture has no 'io' region");
  kernel_.setQuantum(config.quantum);
  board_ = std::make_unique<soc::StandardPeripherals>(io->base);
  ptimer_ = std::make_unique<soc::ProgrammableTimer>();
  mailbox_ = std::make_unique<soc::MailboxDevice>();
  board_->bus.attach(ptimer_.get(),
                     io->base + soc::StandardIoMap::kPTimerOffset,
                     soc::StandardIoMap::kPTimerSize);
  board_->bus.attach(mailbox_.get(),
                     io->base + soc::StandardIoMap::kMailboxOffset,
                     soc::StandardIoMap::kMailboxSize);
  if (config.watchdog) {
    watchdog_ = std::make_unique<soc::WatchdogDevice>();
    board_->bus.attach(watchdog_.get(),
                       io->base + soc::StandardIoMap::kWatchdogOffset,
                       soc::StandardIoMap::kWatchdogSize);
  }
  for (size_t i = 0; i < images.size(); ++i) {
    auto intc = std::make_unique<soc::InterruptController>(
        "intc" + std::to_string(i));
    board_->bus.attach(intc.get(),
                       io->base + soc::StandardIoMap::kIntcOffset +
                           static_cast<uint32_t>(i) *
                               soc::StandardIoMap::kIntcStride,
                       soc::InterruptController::kWindowSize);
    mailbox_->setDoorbell(i,
                          [raw = intc.get()] { raw->raise(kMailboxIrqLine); });
    auto core =
        std::make_unique<iss::Iss>(desc, *images[i], &board_->bus, config.iss);
    core->attachIrq(intc.get());
    intcs_.push_back(std::move(intc));
    cores_.push_back(std::move(core));
  }
  ptimer_->setIrqTarget(intcs_.front().get(), kPTimerIrqLine);
  if (watchdog_ != nullptr) {
    watchdog_->setIrqTarget(intcs_.front().get(), kWatchdogIrqLine);
  }
  for (size_t i = 0; i < cores_.size(); ++i) {
    procs_.push_back(std::make_unique<CoreProcess>(
        cores_[i].get(), "core" + std::to_string(i)));
    kernel_.addProcess(procs_.back().get());
  }
}

ReferenceBoard::~ReferenceBoard() = default;

sim::Process* ReferenceBoard::process(size_t i) const {
  return procs_.at(i).get();
}

soc::WatchdogDevice& ReferenceBoard::watchdog() {
  CABT_CHECK(watchdog_ != nullptr,
             "board built without a watchdog (BoardConfig::watchdog)");
  return *watchdog_;
}

void ReferenceBoard::setTraceSink(obs::TraceSink* sink) {
  trace_sink_ = sink;
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->setTraceSink(sink, obs::coreLane(i));
    procs_[i]->setTraceSink(sink, obs::coreLane(i));
  }
  if (sink != nullptr) {
    for (size_t i = 0; i < cores_.size(); ++i) {
      sink->setThreadName(obs::coreLane(i), "core" + std::to_string(i));
    }
    sink->setThreadName(obs::kSnapLane, "snapshots");
  }
}

uint64_t ReferenceBoard::instructionsRetired() const {
  uint64_t total = 0;
  for (const auto& core : cores_) {
    total += core->stats().instructions;
  }
  return total;
}

void ReferenceBoard::publishMetrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) const {
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->publishMetrics(reg,
                              prefix + "core" + std::to_string(i) + ".iss.");
  }
  kernel_.publishMetrics(reg, prefix + "kernel.");
  board_->bus.publishMetrics(reg, prefix + "bus.");
  reg.setCounter(prefix + "fi.bus_fault_fires", board_->bus.busFaultFires());
  if (watchdog_ != nullptr) {
    reg.setCounter(prefix + "fi.watchdog_fired", watchdog_->fired());
  }
}

iss::StopReason ReferenceBoard::run() {
  runTo(sim::kForever);
  for (const std::unique_ptr<iss::Iss>& core : cores_) {
    if (core->stopReason() != iss::StopReason::kHalted) {
      return core->stopReason();
    }
  }
  return iss::StopReason::kHalted;
}

bool valuesMatch(const arch::ArchDescription& desc, uint32_t iss_value,
                 uint32_t platform_value) {
  if (iss_value == platform_value) {
    return true;
  }
  const MemRegion* region = desc.memory_map.find(iss_value);
  return region != nullptr && region->remap(iss_value) == platform_value;
}

std::string compareFinalState(const arch::ArchDescription& desc,
                              const iss::Iss& reference,
                              const EmulationPlatform& platform,
                              const elf::Object& source_object) {
  for (int i = 0; i < 16; ++i) {
    const uint32_t want = reference.d(i);
    const uint32_t got = platform.srcD(i);
    if (!valuesMatch(desc, want, got)) {
      return "d" + std::to_string(i) + ": reference " + hex32(want) +
             " vs platform " + hex32(got);
    }
  }
  for (int i = 0; i < 16; ++i) {
    const uint32_t want = reference.a(i);
    const uint32_t got = platform.srcA(i);
    if (!valuesMatch(desc, want, got)) {
      return "a" + std::to_string(i) + ": reference " + hex32(want) +
             " vs platform " + hex32(got);
    }
  }
  // Compare writable memory over the source image's data/bss sections, at
  // their remapped target locations.
  for (const elf::Section& s : source_object.sections) {
    if (!s.writable) {
      continue;
    }
    const MemRegion* region = desc.memory_map.find(s.addr);
    for (uint32_t off = 0; off < s.sizeInMemory(); ++off) {
      const uint32_t src_addr = s.addr + off;
      const uint32_t tgt_addr =
          region != nullptr ? region->remap(src_addr) : src_addr;
      const uint8_t want = reference.memory().read8(src_addr);
      const uint8_t got = platform.sim().memory().read8(tgt_addr);
      if (want != got) {
        return "memory " + s.name + "+" + std::to_string(off) +
               " (src " + hex32(src_addr) + "): reference " +
               std::to_string(want) + " vs platform " + std::to_string(got);
      }
    }
  }
  // The simulated cache state, laid out as the translator emits
  // `.cachedata` (xlat::cacheSetStride): per set, one tag+valid word per
  // way, the LRU word, and the MRU word the inline lookups compare
  // against, which must copy the tag word of the way that is not LRU.
  const std::optional<uint32_t> cache_data = platform.cacheDataAddr();
  if (cache_data.has_value() && reference.icacheOn()) {
    const arch::ICacheState& ref = reference.icache();
    const arch::ICacheModel& m = ref.model();
    CABT_CHECK(m.ways == 2, "the translated cache simulation is 2-way (got "
                                << m.ways << " ways)");
    const SparseMemory& mem = platform.sim().memory();
    for (uint32_t set = 0; set < m.sets; ++set) {
      const uint32_t base = *cache_data + set * xlat::cacheSetStride(m.ways);
      const std::string where = "icache set " + std::to_string(set);
      for (uint32_t way = 0; way < m.ways; ++way) {
        const uint32_t want = ref.tagEntry(set, way);
        const uint32_t got = mem.read32(base + way * 4);
        if (want != got) {
          return where + " way " + std::to_string(way) +
                 " tag word: reference " + hex32(want) + " vs platform " +
                 hex32(got);
        }
      }
      const uint32_t lru_way = ref.lruWay(set);
      const uint32_t got_lru =
          mem.read32(base + xlat::cacheLruOffset(m.ways)) & 0xffu;
      if (lru_way != got_lru) {
        return where + " LRU way: reference " + std::to_string(lru_way) +
               " vs platform " + std::to_string(got_lru);
      }
      const uint32_t want_mru = ref.tagEntry(set, lru_way ^ 1u);
      const uint32_t got_mru = mem.read32(base + xlat::cacheMruOffset(m.ways));
      if (want_mru != got_mru) {
        return where + " MRU word: reference " + hex32(want_mru) +
               " vs platform " + hex32(got_mru);
      }
    }
  }
  return {};
}

}  // namespace cabt::platform
