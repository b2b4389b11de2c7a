#include "iss/iss.h"

#include <optional>

#include "common/bits.h"
#include "common/strutil.h"
#include "trc/program.h"

namespace cabt::iss {

using arch::OpClass;
using trc::Instr;
using trc::Opc;

Iss::Iss(const arch::ArchDescription& desc, const elf::Object& object,
         soc::SocBus* bus, IssConfig config)
    : desc_(desc),
      config_(config),
      bus_(bus),
      artifact_(core::ProgramArtifactCache::instance().acquire(
          desc, object, config.extra_leaders)),
      graph_(artifact_->graph()),
      timer_(desc_.pipeline),
      icache_(desc_.icache) {
  for (const elf::Section& s : object.sections) {
    if (s.kind == elf::SectionKind::kProgbits) {
      mem_.writeBlock(s.addr, s.data.data(), s.data.size());
    }
    // NOBITS sections read as zero in SparseMemory already.
    if (s.executable && s.sizeInMemory() > 0) {
      // Code ranges, so memory-word fault injection can refuse to flip
      // instruction bytes out from under the predecoded block graph.
      exec_ranges_.emplace_back(s.addr, s.addr + s.sizeInMemory());
    }
  }
  pc_ = object.entry;
}

core::BlockCache& Iss::blockCache() {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<core::BlockCache>(artifact_);
  }
  return *cache_;
}

const Instr& Iss::fetch(uint32_t addr) const {
  const auto& by_addr = artifact_->instrByAddr();
  const auto it = by_addr.find(addr);
  CABT_CHECK(it != by_addr.end(),
             "PC " << hex32(addr) << " is not at an instruction boundary");
  return graph_.instrs()[it->second];
}

uint64_t Iss::currentCycle() const {
  return committed_cycles_ + live_pipe_;
}

uint64_t Iss::localTime() const {
  return config_.model_timing ? currentCycle() : stats_.instructions;
}

void Iss::flushBusClock() {
  // With decoupled initiators sharing the bus the advance is a no-op
  // when another core already advanced it further (LT skew, bounded by
  // the kernel quantum).
  if (bus_ != nullptr) {
    bus_->advanceTo(deferred_advance_);
  }
}

void Iss::sampleIrq() {
  // Interrupt state is sampled at this core's local time, with every
  // device advanced to it.
  const uint64_t now = localTime();
  if (bus_ != nullptr) {
    bus_->advanceTo(now);
  }
  const std::optional<uint32_t> vector = irq_->takeIrq(now);
  if (!vector.has_value()) {
    return;
  }
  if (bus_ != nullptr) {
    bus_->updateHorizon();  // the controller went in service
  }
  a_[kIrqLinkRegister] = pc_;
  pc_ = *vector;
  ++stats_.irqs_taken;
  if (config_.model_timing) {
    committed_cycles_ += kIrqEntryCycles;
    stats_.irq_entry_cycles += kIrqEntryCycles;
  }
  if (trace_sink_ != nullptr) {
    trace_sink_->instant(trace_lane_, "irq", localTime(), "vector", *vector);
  }
}

bool Iss::applyDueFaults() {
  // No trace-sink writes here: the campaign emits the timeline instants
  // post-run from the fired log.
  bool fired = false;
  const uint64_t now = localTime();
  while (const fi::CoreFault* f = injector_->take(now)) {
    fi::FiredFault rec;
    rec.fault = *f;
    rec.at = now;
    rec.pc = pc_;
    switch (f->kind) {
      case fi::CoreFaultKind::kDataReg:
        rec.before = d_[f->index];
        d_[f->index] ^= f->mask;
        rec.after = d_[f->index];
        break;
      case fi::CoreFaultKind::kAddrReg:
        rec.before = a_[f->index];
        a_[f->index] ^= f->mask;
        rec.after = a_[f->index];
        break;
      case fi::CoreFaultKind::kPc:
        rec.before = pc_;
        pc_ = f->mask != 0 ? pc_ ^ f->mask : f->addr;
        rec.after = pc_;
        break;
      case fi::CoreFaultKind::kMemWord: {
        CABT_CHECK(bus_ == nullptr || !bus_->covers(f->addr),
                   "memory fault at " << hex32(f->addr)
                                      << " targets a device window; use a "
                                         "bus-error or stall fault instead");
        for (const auto& [lo, hi] : exec_ranges_) {
          CABT_CHECK(f->addr < lo || f->addr >= hi,
                     "memory fault at " << hex32(f->addr)
                                        << " would corrupt code (executable "
                                           "range "
                                        << hex32(lo) << ".." << hex32(hi)
                                        << "); the block graph is immutable");
        }
        rec.before = mem_.read(f->addr, 4);
        rec.after = rec.before ^ f->mask;
        mem_.write(f->addr, rec.after, 4);
        break;
      }
    }
    injector_->recordFired(rec);
    fired = true;
  }
  return fired;
}

void Iss::icacheAccess(uint32_t addr) {
  ++stats_.icache_accesses;
  if (!icache_.access(addr)) {
    ++stats_.icache_misses;
    committed_cycles_ += desc_.icache.miss_penalty;
    stats_.cache_penalty += desc_.icache.miss_penalty;
    current_block_.cache_penalty += desc_.icache.miss_penalty;
  }
}

void Iss::icacheAccessTagged(uint32_t set, uint32_t want) {
  ++stats_.icache_accesses;
  if (!icache_.accessTagged(set, want)) {
    ++stats_.icache_misses;
    committed_cycles_ += desc_.icache.miss_penalty;
    stats_.cache_penalty += desc_.icache.miss_penalty;
    current_block_.cache_penalty += desc_.icache.miss_penalty;
  }
}

void Iss::commitBlock() {
  const uint64_t pipeline = live_pipe_;
  committed_cycles_ += pipeline;
  stats_.pipeline_cycles += pipeline;
  current_block_.pipeline_cycles = static_cast<uint32_t>(pipeline);
  if (trace_blocks_) {
    block_trace_.push_back(current_block_);
  }
  live_pipe_ = 0;
  in_block_ = false;
  stats_.cycles = committed_cycles_;
}

void Iss::finishBlock() {
  if (!in_block_) {
    return;
  }
  commitBlock();
  timer_.reset();
  have_line_ = false;
}

StopReason Iss::step() {
  if (stop_ != StopReason::kRunning) {
    return stop_;
  }
  if (stats_.instructions >= config_.max_instructions) {
    stop_ = StopReason::kMaxInstructions;
    return stop_;
  }
  // Basic-block boundary: commit the open block, then sample the
  // interrupt input — the only points where interrupts are taken, so the
  // stepping engine and the block-dispatch engine accept every interrupt
  // at the identical cycle count.
  if (isLeader(pc_)) {
    if (in_block_) {
      finishBlock();
    }
    observeBoundary();
    // The stepping loop's quantum-yield check runs before step(), so this
    // epoch is already known not to yield: fault injection lands here,
    // matching the block engines' after-yield-check placement.
    pollFaults();
    if (irq_ != nullptr) {
      irqEpoch();
    }
  }
  const Instr& instr = fetch(pc_);

  if (config_.model_timing) {
    if (!in_block_ || isLeader(pc_)) {
      finishBlock();
      current_block_ = BlockRecord{};
      current_block_.addr = pc_;
      in_block_ = true;
      ++stats_.blocks;
    }
    // Instruction fetch: one cache access per distinct consecutive line
    // within the block (the cache-analysis-block rule).
    if (icacheOn()) {
      const uint32_t line = desc_.icache.lineOf(pc_);
      if (!have_line_ || line != last_line_) {
        have_line_ = true;
        last_line_ = line;
        icacheAccess(pc_);
      }
    }
    timer_.issue(instr.timedOp());
    live_pipe_ = timer_.cycles();
  }

  execute(instr);
  ++stats_.instructions;
  if (stop_ == StopReason::kHalted) {
    finishHaltedBlock();
  }
  return stop_;
}

int32_t Iss::resolveNext(core::ExecBlock& block) {
  if (stop_ != StopReason::kRunning) {
    return -1;
  }
  const std::vector<core::ExecBlock>& blocks = cache_->blocks();
  if (block.target() >= 0 &&
      pc_ == blocks[static_cast<size_t>(block.target())].addr()) {
    ++block.taken_count;
    return block.target();
  }
  if (block.fall_through() >= 0 &&
      pc_ == blocks[static_cast<size_t>(block.fall_through())].addr()) {
    ++block.ft_count;
    return block.fall_through();
  }
  return -1;  // indirect target (or a transfer out of .text)
}

template <bool Timing>
int32_t Iss::afterBlock(core::ExecBlock& block) {
  const int32_t next = resolveNext(block);
  if constexpr (Timing) {
    const bool bkpt = stop_ == StopReason::kBreakpoint;
    if (bkpt || (next < 0 && stop_ == StopReason::kRunning &&
                 !graph_.isLeaderFast(pc_))) {
      // The block stays open: an indirect transfer landed mid-block
      // (per-instruction semantics keep the block open across the jump),
      // or a BKPT stopped the dispatch inside it. Restore the stepping
      // engine's view of it (warm issue schedule and line tracking) over
      // the instructions retired, so the stop digests as the stepping
      // engine's does and a resume steps on from it.
      timer_.reset();
      uint32_t last = 0;
      for (const Instr& instr : graph_.instrs(*block.rec)) {
        timer_.issue(instr.timedOp());
        last = instr.addr;
        if (bkpt && instr.opc == Opc::kBkpt) {
          break;  // a dispatch stops at its block's first BKPT
        }
      }
      live_pipe_ = timer_.cycles();
      if (icacheOn()) {
        have_line_ = true;
        last_line_ = desc_.icache.lineOf(last);
      }
    }
  }
  return next;
}

template <bool Timing>
StopReason Iss::runChainedT(uint64_t time_limit) {
  core::BlockCache& cache = blockCache();
  std::vector<core::ExecBlock>& blocks = cache.blocks();
  const core::ThreadedBinder binder = threadedBinder();
  int32_t next_idx = -1;
  bool epoch_done = false;
  while (stop_ == StopReason::kRunning) {
    if (stats_.instructions >= config_.max_instructions) {
      stop_ = StopReason::kMaxInstructions;
      break;
    }
    core::ExecBlock* block =
        next_idx >= 0 ? &blocks[static_cast<size_t>(next_idx)] : nullptr;
    next_idx = -1;
    bool via_chain = block != nullptr;
    if (epoch_done) {
      // A trace bailed *after* running this boundary's commit/yield/
      // interrupt epoch: resolve the block and dispatch directly, the
      // way the epoch branch below would have continued.
      epoch_done = false;
      if (block == nullptr && !in_block_) {
        block = cache.lookup(pc_);
      }
    } else if (block != nullptr || graph_.isLeaderFast(pc_)) {
      // A chained successor is by construction a leader the pc has
      // already reached; otherwise one bitmap probe decides whether this
      // is a block boundary. A still-open block is committed lazily,
      // exactly when the stepping engine would: at the first instruction
      // of the next leader.
      if (in_block_) {
        finishBlock();
      }
      observeBoundary();
      if (localTime() >= time_limit) {
        return StopReason::kCycleLimit;  // resumable: stop_ stays running
      }
      if (pollFaults() && block != nullptr && pc_ != block->addr()) {
        block = nullptr;  // fault redirected pc_: the chained edge is stale
        via_chain = false;
      }
      if (irq_ != nullptr) {
        irqEpoch();  // may redirect pc_ to the vector (also a leader)
        if (block != nullptr && pc_ != block->addr()) {
          block = nullptr;  // redirected: the chained edge no longer holds
          via_chain = false;
        }
      }
      if (block == nullptr && !in_block_) {
        block = cache.lookup(pc_);
      }
    }
    if (block == nullptr ||
        stats_.instructions + block->size() > config_.max_instructions) {
      // Per-instruction fallback: mid-block landing addresses and the
      // final instructions before the instruction limit.
      step();
      continue;
    }
    if (via_chain) {
      // Counted only for dispatches that actually go through the cache
      // (not chained arrivals refused for the instruction budget), so
      // chain_entries never exceeds exec_count.
      ++stats_.chain_hits;
      ++block->chain_entries;
    }
    // A block past trace_threshold heads a superblock trace, formed and
    // lowered into threaded code in one step. A trace the op budget
    // declines, and every other dispatch, runs the block's own lowered
    // program.
    if (block->trace == core::kTraceUnformed &&
        block->exec_count >= config_.trace_threshold &&
        block->exec_count >= block->trace_retry_at) {
      block->trace = cache.formTrace(
          static_cast<int32_t>(block - blocks.data()), binder);
      if (block->trace == core::kTraceUnformed) {
        // A refusal can be transient (branch statistics that have not
        // skewed yet): re-attempt with geometric backoff instead of
        // declining forever.
        block->trace_retry_at = block->exec_count * 2;
      } else {
        ++(block->trace >= 0 ? stats_.threaded_lowerings
                             : stats_.threaded_declined);
        if (trace_sink_ != nullptr) {
          trace_sink_->instant(trace_lane_, "trace_form", localTime(),
                               "addr", block->addr());
        }
      }
    }
    if (block->trace >= 0) {
      const core::ThreadedProgram& trace = cache.threaded(block->trace);
      if (stats_.instructions + trace.total_instrs <=
          config_.max_instructions) {
        const uint64_t before = stats_.instructions;
        next_idx = dispatchThreadedTraceT<Timing>(trace, time_limit,
                                                  &epoch_done);
        stats_.threaded_instrs += stats_.instructions - before;
        if (next_idx == kDispatchYield) {
          return StopReason::kCycleLimit;
        }
        continue;
      }
    }
    if (block->threaded == core::kTraceUnformed) {
      block->threaded = cache.lowerBlockThreaded(
          static_cast<int32_t>(block - blocks.data()), binder);
      ++stats_.threaded_lowerings;
    }
    const uint64_t before = stats_.instructions;
    dispatchThreadedBlockT<Timing>(*block, cache.threaded(block->threaded));
    stats_.threaded_instrs += stats_.instructions - before;
    next_idx = afterBlock<Timing>(*block);
  }
  return stop_;
}

StopReason Iss::run() { return runUntil(~static_cast<uint64_t>(0)); }

StopReason Iss::runUntil(uint64_t time_limit) {
  if (stop_ == StopReason::kBreakpoint) {
    stop_ = StopReason::kRunning;  // BKPT resumes with the next instruction
  }
  const StopReason r = runLoop(time_limit);
  flushBusClock();
  return r;
}

StopReason Iss::runLoop(uint64_t time_limit) {
  if (!config_.use_block_cache) {
    while (stop_ == StopReason::kRunning) {
      if (stats_.instructions >= config_.max_instructions) {
        stop_ = StopReason::kMaxInstructions;
        break;
      }
      // Quantum yields happen at the same boundaries as in the block
      // engine, before the interrupt sample of the boundary.
      if (isLeader(pc_) && localTime() >= time_limit) {
        return StopReason::kCycleLimit;
      }
      step();
    }
    return stop_;
  }
  return config_.model_timing ? runChainedT<true>(time_limit)
                              : runChainedT<false>(time_limit);
}

namespace {

/// IssStats is serialized in kStatCounters order; a new counter joins
/// that list (and bumps the snapshot format version in src/snap).
void saveStats(serial::Writer& w, const IssStats& s) {
  for (const StatCounter& c : kStatCounters) {
    w.u64(s.*c.field);
  }
}

void restoreStats(serial::Reader& r, IssStats& s) {
  for (const StatCounter& c : kStatCounters) {
    s.*c.field = r.u64();
  }
}

}  // namespace

void Iss::saveState(serial::Writer& w) const {
  w.tag("iss");
  // Compatibility record: the architectural configuration and a program
  // fingerprint. Restore requires an identical pair — a snapshot taken
  // at one detail level or of one program must not restore into another.
  // The engine choice and tier thresholds are deliberately absent: they are
  // host-side strategy, and a snapshot moves freely between them.
  w.b(config_.model_timing);
  w.b(config_.model_branch_extras);
  w.b(icacheOn());
  w.u32(kIrqEntryCycles);
  w.u64(config_.max_instructions);
  // The artifact caches the fingerprint (same bytes as the
  // historical per-save computation, see program_artifact.cpp).
  w.u64(artifact_->fingerprint());
  // Architectural core state.
  w.u32(pc_);
  w.u8(static_cast<uint8_t>(stop_));
  for (const uint32_t v : d_) {
    w.u32(v);
  }
  for (const uint32_t v : a_) {
    w.u32(v);
  }
  // Lazy-commit cycle accounting and the open block's residue.
  w.u64(committed_cycles_);
  w.u64(live_pipe_);
  w.b(in_block_);
  w.b(have_line_);
  w.u32(last_line_);
  w.u32(current_block_.addr);
  w.u32(current_block_.pipeline_cycles);
  w.u32(current_block_.branch_extra);
  w.u32(current_block_.cache_penalty);
  timer_.saveState(w);
  icache_.saveState(w);
  saveStats(w, stats_);
  mem_.saveState(w);
}

void Iss::restoreState(serial::Reader& r) {
  r.tag("iss");
  CABT_CHECK(r.b() == config_.model_timing &&
                 r.b() == config_.model_branch_extras && r.b() == icacheOn(),
             "snapshot detail level does not match this core's config");
  CABT_CHECK(r.u32() == kIrqEntryCycles &&
                 r.u64() == config_.max_instructions,
             "snapshot limits do not match this core's config");
  CABT_CHECK(r.u64() == artifact_->fingerprint(),
             "snapshot program does not match this core's image");
  pc_ = r.u32();
  // kCycleLimit is a return value only, never the stored state.
  const uint8_t stop = r.u8();
  CABT_CHECK(stop < static_cast<uint8_t>(StopReason::kCycleLimit),
             "snapshot stop reason " << static_cast<unsigned>(stop)
                                     << " is not one the core stores");
  stop_ = static_cast<StopReason>(stop);
  for (uint32_t& v : d_) {
    v = r.u32();
  }
  for (uint32_t& v : a_) {
    v = r.u32();
  }
  committed_cycles_ = r.u64();
  live_pipe_ = r.u64();
  in_block_ = r.b();
  have_line_ = r.b();
  last_line_ = r.u32();
  current_block_.addr = r.u32();
  current_block_.pipeline_cycles = r.u32();
  current_block_.branch_extra = r.u32();
  current_block_.cache_penalty = r.u32();
  timer_.restoreState(r);
  icache_.restoreState(r);
  restoreStats(r, stats_);
  mem_.restoreState(r);
  // Derived state stays as it is: the predecoded cache (if one exists),
  // its traces and its lowered threaded-code programs are built from the
  // immutable image, and every trace guard re-checks the pc. A cold
  // restore has no cache at all: it re-lowers each block at its first
  // dispatch and re-forms traces once their heads re-heat.
  // Nothing is owed across a snapshot boundary: the live value may
  // belong to another timeline.
  deferred_advance_ = 0;
}

uint64_t Iss::digestState(uint64_t h) const {
  serial::Writer w;
  w.u32(pc_);
  w.u8(static_cast<uint8_t>(stop_));
  for (const uint32_t v : d_) {
    w.u32(v);
  }
  for (const uint32_t v : a_) {
    w.u32(v);
  }
  w.u64(committed_cycles_);
  w.u64(live_pipe_);
  w.b(in_block_);
  w.b(have_line_);
  // last_line_ is meaningful only while a line is tracked; when it is
  // not, the engines leave different stale residue behind (the stepping
  // engine writes it per line, the block engines only on mid-block
  // re-warm) — digest the live value only.
  w.u32(have_line_ ? last_line_ : 0);
  timer_.saveState(w);
  icache_.saveState(w);
  // Architectural counters only (identical across both engines).
  for (const StatCounter& c : kArchitecturalCounters) {
    w.u64(stats_.*c.field);
  }
  // Memory last, hashed in place (no page is copied).
  return mem_.hashCanonical(serial::fnv1a(w.data(), h));
}

std::vector<HotBlock> Iss::hotBlocks(size_t n) const {
  std::vector<HotBlock> out;
  if (cache_ == nullptr) {
    return out;  // the block engine never ran
  }
  for (const core::ExecBlock* b : cache_->hottest(n)) {
    out.push_back({b->addr(), b->size(),
                   b->exec_count, b->chain_entries, b->trace_execs,
                   artifact_->symbols().describe(b->addr())});
  }
  return out;
}

void Iss::publishMetrics(obs::MetricsRegistry& reg,
                         const std::string& prefix) const {
  for (const StatCounter& c : kStatCounters) {
    reg.setCounter(prefix + c.name, stats_.*c.field);
  }
  reg.setGauge(prefix + "local_time", static_cast<double>(localTime()));
  if (cache_ != nullptr) {
    for (const core::ExecBlock* b : cache_->hottest(SIZE_MAX)) {
      reg.observe(prefix + "block_exec_counts", b->exec_count);
    }
  }
}

uint32_t Iss::loadMem(uint32_t addr, unsigned size, bool sign) {
  uint32_t v;
  if (bus_ != nullptr && bus_->covers(addr)) {
    bus_->advanceTo(localTime());  // a transaction is stamped at this time
    v = bus_->read(addr, size);
    ++stats_.io_reads;
  } else {
    v = mem_.read(addr, size);
  }
  if (sign && size < 4) {
    v = static_cast<uint32_t>(signExtend(v, size * 8));
  }
  return v;
}

void Iss::storeMem(uint32_t addr, uint32_t value, unsigned size) {
  if (bus_ != nullptr && bus_->covers(addr)) {
    bus_->advanceTo(localTime());
    bus_->write(addr, value, size);
    ++stats_.io_writes;
  } else {
    mem_.write(addr, value, size);
  }
}

void Iss::execute(const Instr& in) {
  const arch::BranchModel& bm = desc_.branch;
  const bool branch_extras =
      config_.model_timing && config_.model_branch_extras;
  uint32_t next_pc = pc_ + in.size;

  const auto chargeExtra = [&](unsigned extra) {
    committed_cycles_ += extra;
    stats_.branch_extra += extra;
    current_block_.branch_extra += extra;
  };
  const auto condBranch = [&](bool taken) {
    ++stats_.cond_branches;
    const bool predicted_taken = arch::BranchModel::predictsTaken(in.imm);
    if (taken) {
      ++stats_.cond_taken;
      next_pc = in.branchTarget();
    }
    if (predicted_taken != taken) {
      ++stats_.mispredicts;
    }
    if (branch_extras) {
      chargeExtra(bm.conditionalExtra(predicted_taken, taken));
    }
  };
  const auto uncondExtra = [&] {
    if (branch_extras) {
      chargeExtra(bm.unconditionalExtra(in.cls()));
    }
  };

  switch (in.opc) {
    case Opc::kAdd:
      d_[in.rd] = d_[in.ra] + d_[in.rb];
      break;
    case Opc::kSub:
      d_[in.rd] = d_[in.ra] - d_[in.rb];
      break;
    case Opc::kAnd:
      d_[in.rd] = d_[in.ra] & d_[in.rb];
      break;
    case Opc::kOr:
      d_[in.rd] = d_[in.ra] | d_[in.rb];
      break;
    case Opc::kXor:
      d_[in.rd] = d_[in.ra] ^ d_[in.rb];
      break;
    case Opc::kShl:
      d_[in.rd] = d_[in.ra] << (d_[in.rb] & 31);
      break;
    case Opc::kShr:
      d_[in.rd] = d_[in.ra] >> (d_[in.rb] & 31);
      break;
    case Opc::kSar:
      d_[in.rd] = static_cast<uint32_t>(static_cast<int32_t>(d_[in.ra]) >>
                                        (d_[in.rb] & 31));
      break;
    case Opc::kMul:
      d_[in.rd] = d_[in.ra] * d_[in.rb];
      break;
    case Opc::kEq:
      d_[in.rd] = d_[in.ra] == d_[in.rb] ? 1 : 0;
      break;
    case Opc::kNe:
      d_[in.rd] = d_[in.ra] != d_[in.rb] ? 1 : 0;
      break;
    case Opc::kLt:
      d_[in.rd] = static_cast<int32_t>(d_[in.ra]) <
                          static_cast<int32_t>(d_[in.rb])
                      ? 1
                      : 0;
      break;
    case Opc::kGe:
      d_[in.rd] = static_cast<int32_t>(d_[in.ra]) >=
                          static_cast<int32_t>(d_[in.rb])
                      ? 1
                      : 0;
      break;
    case Opc::kLtu:
      d_[in.rd] = d_[in.ra] < d_[in.rb] ? 1 : 0;
      break;
    case Opc::kGeu:
      d_[in.rd] = d_[in.ra] >= d_[in.rb] ? 1 : 0;
      break;
    case Opc::kAddi:
      d_[in.rd] = d_[in.ra] + static_cast<uint32_t>(in.imm);
      break;
    case Opc::kMovi:
      d_[in.rd] = static_cast<uint32_t>(in.imm);
      break;
    case Opc::kMovh:
      d_[in.rd] = static_cast<uint32_t>(in.imm) << 16;
      break;
    case Opc::kMova:
      a_[in.rd] = d_[in.ra];
      break;
    case Opc::kMovd:
      d_[in.rd] = a_[in.ra];
      break;
    case Opc::kLea:
      a_[in.rd] = a_[in.ra] + static_cast<uint32_t>(in.imm);
      break;
    case Opc::kMovha:
      a_[in.rd] = static_cast<uint32_t>(in.imm) << 16;
      break;
    case Opc::kAdda:
      a_[in.rd] = a_[in.ra] + a_[in.rb];
      break;
    case Opc::kSuba:
      a_[in.rd] = a_[in.ra] - a_[in.rb];
      break;
    case Opc::kLdw:
      d_[in.rd] = loadMem(a_[in.ra] + static_cast<uint32_t>(in.imm), 4, false);
      break;
    case Opc::kLdh:
      d_[in.rd] = loadMem(a_[in.ra] + static_cast<uint32_t>(in.imm), 2, true);
      break;
    case Opc::kLdhu:
      d_[in.rd] = loadMem(a_[in.ra] + static_cast<uint32_t>(in.imm), 2, false);
      break;
    case Opc::kLdb:
      d_[in.rd] = loadMem(a_[in.ra] + static_cast<uint32_t>(in.imm), 1, true);
      break;
    case Opc::kLdbu:
      d_[in.rd] = loadMem(a_[in.ra] + static_cast<uint32_t>(in.imm), 1, false);
      break;
    case Opc::kLda:
      a_[in.rd] = loadMem(a_[in.ra] + static_cast<uint32_t>(in.imm), 4, false);
      break;
    case Opc::kStw:
      storeMem(a_[in.ra] + static_cast<uint32_t>(in.imm), d_[in.rd], 4);
      break;
    case Opc::kSth:
      storeMem(a_[in.ra] + static_cast<uint32_t>(in.imm), d_[in.rd], 2);
      break;
    case Opc::kStb:
      storeMem(a_[in.ra] + static_cast<uint32_t>(in.imm), d_[in.rd], 1);
      break;
    case Opc::kSta:
      storeMem(a_[in.ra] + static_cast<uint32_t>(in.imm), a_[in.rd], 4);
      break;
    case Opc::kJ:
    case Opc::kJ16:
      next_pc = in.branchTarget();
      uncondExtra();
      break;
    case Opc::kJl:
      a_[trc::kLinkRegister] = pc_ + in.size;
      next_pc = in.branchTarget();
      uncondExtra();
      break;
    case Opc::kJi:
      next_pc = a_[in.ra];
      uncondExtra();
      break;
    case Opc::kRet16:
      next_pc = a_[trc::kLinkRegister];
      uncondExtra();
      break;
    case Opc::kJeq:
      condBranch(d_[in.ra] == d_[in.rb]);
      break;
    case Opc::kJne:
      condBranch(d_[in.ra] != d_[in.rb]);
      break;
    case Opc::kJlt:
      condBranch(static_cast<int32_t>(d_[in.ra]) <
                 static_cast<int32_t>(d_[in.rb]));
      break;
    case Opc::kJge:
      condBranch(static_cast<int32_t>(d_[in.ra]) >=
                 static_cast<int32_t>(d_[in.rb]));
      break;
    case Opc::kJltu:
      condBranch(d_[in.ra] < d_[in.rb]);
      break;
    case Opc::kJgeu:
      condBranch(d_[in.ra] >= d_[in.rb]);
      break;
    case Opc::kJnz16:
      condBranch(d_[in.rd] != 0);
      break;
    case Opc::kJz16:
      condBranch(d_[in.rd] == 0);
      break;
    case Opc::kNop:
    case Opc::kNop16:
      break;
    case Opc::kHalt:
      stop_ = StopReason::kHalted;
      return;  // PC stays at the HALT instruction
    case Opc::kBkpt:
      stop_ = StopReason::kBreakpoint;
      pc_ += in.size;
      return;
    case Opc::kMov16:
      d_[in.rd] = d_[in.rb];
      break;
    case Opc::kAdd16:
      d_[in.rd] += d_[in.rb];
      break;
    case Opc::kSub16:
      d_[in.rd] -= d_[in.rb];
      break;
    case Opc::kMovi16:
      d_[in.rd] = static_cast<uint32_t>(in.imm);
      break;
    case Opc::kAddi16:
      d_[in.rd] += static_cast<uint32_t>(in.imm);
      break;
    default:
      CABT_FAIL("unhandled opcode in ISS: " << in.info().mnemonic);
  }
  pc_ = next_pc;
}

// ---- threaded code: how the threaded engine executes every block ------
//
// One specialized host handler per opcode, in (Timing, BranchX) handler
// sets, with the icache line touch baked in per op at lowering
// (`Touch`: the op starts one of its block's cache analysis blocks, so
// no runtime test survives). Each handler performs exactly the
// per-instruction sequence of step() — line touch, live pipeline cost,
// the instruction's semantics, retirement count — against fully
// predecoded operands (the cumulative schedule stands in for step()'s
// PipelineTimer), then returns the next record; control transfers,
// HALT/BKPT and the fall-through terminator return nullptr, which both
// ends the dispatch loop (no per-op stop-flag poll) and marks the
// original block boundary where the dispatcher applies every
// correction. Mid-block observables are
// preserved exactly: memory handlers see live_pipe_ already at this
// op's cumulative cost (the bus clock advances to localTime() on device
// access), the retirement count increments after the access (functional
// mode clocks the bus by instruction count), icache penalties and
// branch extras go to committed_cycles_ as they accrue, and interior
// ops do not touch the pc (nothing observes it between boundaries; the
// segment-ending op re-establishes it).

template <bool Timing, bool BranchX>
struct ThreadedHandlers {
  using Op = core::ThreadedOp;

  static Iss& cpu(void* p) { return *static_cast<Iss*>(p); }

  /// Per-op prologue in step()'s order: the baked-in line touch,
  /// then the open block's live pipeline cost.
  template <bool Touch>
  static void prologue(Iss& c, const Op* op) {
    if constexpr (Touch) {
      c.icacheAccessTagged(op->line_set, op->line_tag);
    }
    if constexpr (Timing) {
      c.live_pipe_ = op->cum;
    }
  }

  /// Conditional-branch epilogue: outcome counters always, the
  /// precomputed outcome extra only under BranchX; ends the segment.
  static const Op* condBranch(Iss& c, const Op* op, bool taken) {
    ++c.stats_.cond_branches;
    const bool predicted = (op->flags & Op::kPredictedTaken) != 0;
    if (taken) {
      ++c.stats_.cond_taken;
      c.pc_ = op->b;
    } else {
      c.pc_ = op->a;
    }
    if (predicted != taken) {
      ++c.stats_.mispredicts;
    }
    if constexpr (BranchX) {
      const unsigned extra = taken ? op->x0 : op->x1;
      c.committed_cycles_ += extra;
      c.stats_.branch_extra += extra;
      c.current_block_.branch_extra += extra;
    }
    ++c.stats_.instructions;
    return nullptr;
  }

  /// Static extra of an unconditional transfer (precomputed into x0).
  static void uncondExtra(Iss& c, const Op* op) {
    if constexpr (BranchX) {
      c.committed_cycles_ += op->x0;
      c.stats_.branch_extra += op->x0;
      c.current_block_.branch_extra += op->x0;
    }
  }

  template <Opc O, bool Touch>
  static const Op* exec(void* p, const Op* op) {
    Iss& c = cpu(p);
    prologue<Touch>(c, op);
    if constexpr (O == Opc::kAdd) {
      c.d_[op->rd] = c.d_[op->ra] + c.d_[op->rb];
    } else if constexpr (O == Opc::kSub) {
      c.d_[op->rd] = c.d_[op->ra] - c.d_[op->rb];
    } else if constexpr (O == Opc::kAnd) {
      c.d_[op->rd] = c.d_[op->ra] & c.d_[op->rb];
    } else if constexpr (O == Opc::kOr) {
      c.d_[op->rd] = c.d_[op->ra] | c.d_[op->rb];
    } else if constexpr (O == Opc::kXor) {
      c.d_[op->rd] = c.d_[op->ra] ^ c.d_[op->rb];
    } else if constexpr (O == Opc::kShl) {
      c.d_[op->rd] = c.d_[op->ra] << (c.d_[op->rb] & 31);
    } else if constexpr (O == Opc::kShr) {
      c.d_[op->rd] = c.d_[op->ra] >> (c.d_[op->rb] & 31);
    } else if constexpr (O == Opc::kSar) {
      c.d_[op->rd] = static_cast<uint32_t>(
          static_cast<int32_t>(c.d_[op->ra]) >> (c.d_[op->rb] & 31));
    } else if constexpr (O == Opc::kMul) {
      c.d_[op->rd] = c.d_[op->ra] * c.d_[op->rb];
    } else if constexpr (O == Opc::kEq) {
      c.d_[op->rd] = c.d_[op->ra] == c.d_[op->rb] ? 1 : 0;
    } else if constexpr (O == Opc::kNe) {
      c.d_[op->rd] = c.d_[op->ra] != c.d_[op->rb] ? 1 : 0;
    } else if constexpr (O == Opc::kLt) {
      c.d_[op->rd] = static_cast<int32_t>(c.d_[op->ra]) <
                             static_cast<int32_t>(c.d_[op->rb])
                         ? 1
                         : 0;
    } else if constexpr (O == Opc::kGe) {
      c.d_[op->rd] = static_cast<int32_t>(c.d_[op->ra]) >=
                             static_cast<int32_t>(c.d_[op->rb])
                         ? 1
                         : 0;
    } else if constexpr (O == Opc::kLtu) {
      c.d_[op->rd] = c.d_[op->ra] < c.d_[op->rb] ? 1 : 0;
    } else if constexpr (O == Opc::kGeu) {
      c.d_[op->rd] = c.d_[op->ra] >= c.d_[op->rb] ? 1 : 0;
    } else if constexpr (O == Opc::kAddi) {
      c.d_[op->rd] = c.d_[op->ra] + op->a;
    } else if constexpr (O == Opc::kMovi || O == Opc::kMovh ||
                         O == Opc::kMovi16) {
      c.d_[op->rd] = op->a;  // kMovh pre-shifted at lowering
    } else if constexpr (O == Opc::kMova) {
      c.a_[op->rd] = c.d_[op->ra];
    } else if constexpr (O == Opc::kMovd) {
      c.d_[op->rd] = c.a_[op->ra];
    } else if constexpr (O == Opc::kLea) {
      c.a_[op->rd] = c.a_[op->ra] + op->a;
    } else if constexpr (O == Opc::kMovha) {
      c.a_[op->rd] = op->a;  // pre-shifted at lowering
    } else if constexpr (O == Opc::kAdda) {
      c.a_[op->rd] = c.a_[op->ra] + c.a_[op->rb];
    } else if constexpr (O == Opc::kSuba) {
      c.a_[op->rd] = c.a_[op->ra] - c.a_[op->rb];
    } else if constexpr (O == Opc::kLdw) {
      c.d_[op->rd] = c.loadMem(c.a_[op->ra] + op->a, 4, false);
    } else if constexpr (O == Opc::kLdh) {
      c.d_[op->rd] = c.loadMem(c.a_[op->ra] + op->a, 2, true);
    } else if constexpr (O == Opc::kLdhu) {
      c.d_[op->rd] = c.loadMem(c.a_[op->ra] + op->a, 2, false);
    } else if constexpr (O == Opc::kLdb) {
      c.d_[op->rd] = c.loadMem(c.a_[op->ra] + op->a, 1, true);
    } else if constexpr (O == Opc::kLdbu) {
      c.d_[op->rd] = c.loadMem(c.a_[op->ra] + op->a, 1, false);
    } else if constexpr (O == Opc::kLda) {
      c.a_[op->rd] = c.loadMem(c.a_[op->ra] + op->a, 4, false);
    } else if constexpr (O == Opc::kStw) {
      c.storeMem(c.a_[op->ra] + op->a, c.d_[op->rd], 4);
    } else if constexpr (O == Opc::kSth) {
      c.storeMem(c.a_[op->ra] + op->a, c.d_[op->rd], 2);
    } else if constexpr (O == Opc::kStb) {
      c.storeMem(c.a_[op->ra] + op->a, c.d_[op->rd], 1);
    } else if constexpr (O == Opc::kSta) {
      c.storeMem(c.a_[op->ra] + op->a, c.a_[op->rd], 4);
    } else if constexpr (O == Opc::kJ || O == Opc::kJ16) {
      uncondExtra(c, op);
      c.pc_ = op->b;
      ++c.stats_.instructions;
      return nullptr;
    } else if constexpr (O == Opc::kJl) {
      c.a_[trc::kLinkRegister] = op->a;  // precomputed return address
      uncondExtra(c, op);
      c.pc_ = op->b;
      ++c.stats_.instructions;
      return nullptr;
    } else if constexpr (O == Opc::kJi) {
      uncondExtra(c, op);
      c.pc_ = c.a_[op->ra];
      ++c.stats_.instructions;
      return nullptr;
    } else if constexpr (O == Opc::kRet16) {
      uncondExtra(c, op);
      c.pc_ = c.a_[trc::kLinkRegister];
      ++c.stats_.instructions;
      return nullptr;
    } else if constexpr (O == Opc::kJeq) {
      return condBranch(c, op, c.d_[op->ra] == c.d_[op->rb]);
    } else if constexpr (O == Opc::kJne) {
      return condBranch(c, op, c.d_[op->ra] != c.d_[op->rb]);
    } else if constexpr (O == Opc::kJlt) {
      return condBranch(c, op, static_cast<int32_t>(c.d_[op->ra]) <
                                   static_cast<int32_t>(c.d_[op->rb]));
    } else if constexpr (O == Opc::kJge) {
      return condBranch(c, op, static_cast<int32_t>(c.d_[op->ra]) >=
                                   static_cast<int32_t>(c.d_[op->rb]));
    } else if constexpr (O == Opc::kJltu) {
      return condBranch(c, op, c.d_[op->ra] < c.d_[op->rb]);
    } else if constexpr (O == Opc::kJgeu) {
      return condBranch(c, op, c.d_[op->ra] >= c.d_[op->rb]);
    } else if constexpr (O == Opc::kJnz16) {
      return condBranch(c, op, c.d_[op->rd] != 0);
    } else if constexpr (O == Opc::kJz16) {
      return condBranch(c, op, c.d_[op->rd] == 0);
    } else if constexpr (O == Opc::kNop || O == Opc::kNop16) {
      // no architectural effect
    } else if constexpr (O == Opc::kHalt) {
      c.stop_ = StopReason::kHalted;
      c.pc_ = op->a;  // the pc rests on the HALT instruction
      ++c.stats_.instructions;
      return nullptr;
    } else if constexpr (O == Opc::kBkpt) {
      c.stop_ = StopReason::kBreakpoint;
      c.pc_ = op->a;  // past the BKPT
      ++c.stats_.instructions;
      return nullptr;
    } else if constexpr (O == Opc::kMov16) {
      c.d_[op->rd] = c.d_[op->rb];
    } else if constexpr (O == Opc::kAdd16) {
      c.d_[op->rd] += c.d_[op->rb];
    } else if constexpr (O == Opc::kSub16) {
      c.d_[op->rd] -= c.d_[op->rb];
    } else if constexpr (O == Opc::kAddi16) {
      c.d_[op->rd] += op->a;
    }
    ++c.stats_.instructions;
    return op + 1;
  }

  /// Fall-through terminator of a leader-split segment: no control
  /// transfer set the pc, so establish the precomputed continuation.
  static const Op* end(void* p, const Op* op) {
    cpu(p).pc_ = op->a;
    return nullptr;
  }

  template <bool Touch>
  static core::ThreadedFn selectT(Opc o) {
    switch (o) {
      case Opc::kAdd: return &exec<Opc::kAdd, Touch>;
      case Opc::kSub: return &exec<Opc::kSub, Touch>;
      case Opc::kAnd: return &exec<Opc::kAnd, Touch>;
      case Opc::kOr: return &exec<Opc::kOr, Touch>;
      case Opc::kXor: return &exec<Opc::kXor, Touch>;
      case Opc::kShl: return &exec<Opc::kShl, Touch>;
      case Opc::kShr: return &exec<Opc::kShr, Touch>;
      case Opc::kSar: return &exec<Opc::kSar, Touch>;
      case Opc::kMul: return &exec<Opc::kMul, Touch>;
      case Opc::kEq: return &exec<Opc::kEq, Touch>;
      case Opc::kNe: return &exec<Opc::kNe, Touch>;
      case Opc::kLt: return &exec<Opc::kLt, Touch>;
      case Opc::kGe: return &exec<Opc::kGe, Touch>;
      case Opc::kLtu: return &exec<Opc::kLtu, Touch>;
      case Opc::kGeu: return &exec<Opc::kGeu, Touch>;
      case Opc::kAddi: return &exec<Opc::kAddi, Touch>;
      case Opc::kMovi: return &exec<Opc::kMovi, Touch>;
      case Opc::kMovh: return &exec<Opc::kMovh, Touch>;
      case Opc::kMova: return &exec<Opc::kMova, Touch>;
      case Opc::kMovd: return &exec<Opc::kMovd, Touch>;
      case Opc::kLea: return &exec<Opc::kLea, Touch>;
      case Opc::kMovha: return &exec<Opc::kMovha, Touch>;
      case Opc::kAdda: return &exec<Opc::kAdda, Touch>;
      case Opc::kSuba: return &exec<Opc::kSuba, Touch>;
      case Opc::kLdw: return &exec<Opc::kLdw, Touch>;
      case Opc::kLdh: return &exec<Opc::kLdh, Touch>;
      case Opc::kLdhu: return &exec<Opc::kLdhu, Touch>;
      case Opc::kLdb: return &exec<Opc::kLdb, Touch>;
      case Opc::kLdbu: return &exec<Opc::kLdbu, Touch>;
      case Opc::kLda: return &exec<Opc::kLda, Touch>;
      case Opc::kStw: return &exec<Opc::kStw, Touch>;
      case Opc::kSth: return &exec<Opc::kSth, Touch>;
      case Opc::kStb: return &exec<Opc::kStb, Touch>;
      case Opc::kSta: return &exec<Opc::kSta, Touch>;
      case Opc::kJ: return &exec<Opc::kJ, Touch>;
      case Opc::kJ16: return &exec<Opc::kJ16, Touch>;
      case Opc::kJl: return &exec<Opc::kJl, Touch>;
      case Opc::kJi: return &exec<Opc::kJi, Touch>;
      case Opc::kRet16: return &exec<Opc::kRet16, Touch>;
      case Opc::kJeq: return &exec<Opc::kJeq, Touch>;
      case Opc::kJne: return &exec<Opc::kJne, Touch>;
      case Opc::kJlt: return &exec<Opc::kJlt, Touch>;
      case Opc::kJge: return &exec<Opc::kJge, Touch>;
      case Opc::kJltu: return &exec<Opc::kJltu, Touch>;
      case Opc::kJgeu: return &exec<Opc::kJgeu, Touch>;
      case Opc::kJnz16: return &exec<Opc::kJnz16, Touch>;
      case Opc::kJz16: return &exec<Opc::kJz16, Touch>;
      case Opc::kNop: return &exec<Opc::kNop, Touch>;
      case Opc::kNop16: return &exec<Opc::kNop16, Touch>;
      case Opc::kHalt: return &exec<Opc::kHalt, Touch>;
      case Opc::kBkpt: return &exec<Opc::kBkpt, Touch>;
      case Opc::kMov16: return &exec<Opc::kMov16, Touch>;
      case Opc::kAdd16: return &exec<Opc::kAdd16, Touch>;
      case Opc::kSub16: return &exec<Opc::kSub16, Touch>;
      case Opc::kMovi16: return &exec<Opc::kMovi16, Touch>;
      case Opc::kAddi16: return &exec<Opc::kAddi16, Touch>;
      default:
        CABT_FAIL("unhandled opcode in threaded lowering: "
                  << static_cast<int>(o));
    }
  }

  static core::ThreadedFn select(const trc::Instr& in, bool touch) {
    return touch ? selectT<true>(in.opc) : selectT<false>(in.opc);
  }
};

core::ThreadedBinder Iss::threadedBinder() const {
  core::ThreadedBinder binder;
  // Functional mode never touches the icache (and needs no extras), so
  // the touch and the handler set collapse together.
  if (!config_.model_timing) {
    binder.select = &ThreadedHandlers<false, false>::select;
    binder.end = &ThreadedHandlers<false, false>::end;
    binder.icache_on = false;
  } else if (config_.model_branch_extras) {
    binder.select = &ThreadedHandlers<true, true>::select;
    binder.end = &ThreadedHandlers<true, true>::end;
    binder.icache_on = icacheOn();
  } else {
    binder.select = &ThreadedHandlers<true, false>::select;
    binder.end = &ThreadedHandlers<true, false>::end;
    binder.icache_on = icacheOn();
  }
  return binder;
}

template <bool Timing>
void Iss::dispatchThreadedBlockT(core::ExecBlock& block,
                                 const core::ThreadedProgram& prog) {
  ++block.exec_count;
  ++stats_.cached_blocks;
  ++stats_.threaded_dispatches;
  if constexpr (Timing) {
    current_block_ = BlockRecord{};
    current_block_.addr = block.addr();
    in_block_ = true;
    ++stats_.blocks;
  }
  const core::ThreadedOp* op = prog.ops.data();
  while (op != nullptr) {
    op = op->fn(this, op);
  }
  if (stop_ == StopReason::kHalted) {
    finishHaltedBlock();
  }
}

template <bool Timing>
int32_t Iss::dispatchThreadedTraceT(const core::ThreadedProgram& prog,
                                    uint64_t time_limit, bool* epoch_done) {
  // Admission (runChainedT) guaranteed the whole trace fits the
  // instruction budget, so no budget test survives inside the trace.
  ++stats_.trace_dispatches;
  ++stats_.threaded_dispatches;
  std::vector<core::ExecBlock>& blocks = cache_->blocks();
  const core::ThreadedOp* ops = prog.ops.data();
  const core::ThreadedSegment* segs = prog.segs.data();
  const size_t num_segs = prog.segs.size();
  for (size_t s = 0;; ++s) {
    const core::ThreadedSegment& seg = segs[s];
    core::ExecBlock& block = blocks[static_cast<size_t>(seg.block)];
    ++block.exec_count;
    ++block.trace_execs;
    ++stats_.cached_blocks;
    ++stats_.trace_blocks;
    if constexpr (Timing) {
      current_block_ = BlockRecord{};
      current_block_.addr = block.addr();
      in_block_ = true;
      ++stats_.blocks;
    }
    const core::ThreadedOp* op = ops + seg.first;
    while (op != nullptr) {
      op = op->fn(this, op);
    }
    if (stop_ != StopReason::kRunning) {
      if (stop_ == StopReason::kHalted) {
        finishHaltedBlock();
      }
      return afterBlock<Timing>(block);  // -1; re-warms at a BKPT stop
    }
    if (s + 1 == num_segs) {
      return afterBlock<Timing>(block);  // chain off the trace end
    }
    // Original block boundary inside the trace: the identical epoch
    // sequence the outer loop performs between two chained blocks —
    // lazy commit, quantum yield, interrupt sample, then the guard.
    finishBlock();
    observeBoundary();
    if (localTime() >= time_limit) {
      return kDispatchYield;  // resumable: pc_ rests on the next leader
    }
    pollFaults();  // a pc-redirecting fault fails the guard below
    if (irq_ != nullptr) {
      irqEpoch();
    }
    if (pc_ != segs[s + 1].entry_addr) {
      // Guard failure: the branch went the non-dominant way or an
      // interrupt redirected control. Bail to block granularity; the
      // actual successor may still chain. This boundary's epoch has
      // already run — the outer loop must not repeat it.
      ++stats_.guard_bails;
      if (trace_sink_ != nullptr) {
        trace_sink_->instant(trace_lane_, "guard_bail", localTime(), "addr",
                             block.addr());
      }
      *epoch_done = true;
      return resolveNext(block);
    }
  }
}

}  // namespace cabt::iss
