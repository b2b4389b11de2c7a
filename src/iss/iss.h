// Cycle-accurate instruction-set simulator for TRC32.
//
// Plays the role of the paper's TriCore TC10GP evaluation board: the
// ground truth for both instruction counts and cycle counts that the
// translated code is compared against (paper section 4). The timing model
// is the architecture description's: dual-issue in-order pipeline that
// drains at basic-block boundaries, static backward-taken branch
// prediction, and a set-associative instruction cache (see DESIGN.md for
// the precise fetch rule).
//
// Two execution engines share identical semantics:
//   * the threaded engine (the default for run()), which executes whole
//     predecoded blocks from a core::BlockCache in two tiers: every
//     block is lowered into threaded code at its first dispatch (core/
//     threaded.h: pre-bound handler records, no decode switch) and
//     chained to its successor through precomputed edges (no hash
//     lookup), and hot blocks are spliced with their dominant successors
//     into guarded superblock traces that are lowered the same way. The
//     handlers are specialized on the timing/icache/branch-extra knobs
//     so no per-instruction config test survives in the hot path (see
//     DESIGN.md section 6); and
//   * the per-instruction step() engine, the interpretive reference (the
//     one decode switch): selected with IssConfig::use_block_cache =
//     false, and the threaded engine's fallback for addresses that are
//     not block leaders and for the last instructions before the
//     instruction limit.
// Block boundaries come from the same core::BlockGraph the translator
// consumes, so the reference and the translated image can never disagree
// about block structure. The two engines are bit-identical in both
// architectural state and every IssStats counter (checked by
// tests/random_program_test.cpp).
//
// Interrupts (soc::IrqSource, attached via attachIrq) are sampled at
// basic-block boundaries only, which keeps the engines bit-identical
// under interrupts (see DESIGN.md, "IRQ-at-block-boundary rule"). A
// boundary below the bus horizon (soc::SocBus::horizon) skips the
// sample, which is provably inert there, and only records the bus-clock
// advance it owes; the core pays that advance at its next bus access or
// sample, or when it returns (the lazy-clock contract, DESIGN.md
// section 5.1). runUntil() yields at boundaries once a local-time limit
// is reached; the event kernel (sim/kernel.h) uses it to run cores in
// quantum-bounded slices.
//
// The ISS has no debugger of its own: debugging happens on the
// translated program (debug/debugger.h, paper section 3.5).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "arch/icache_model.h"
#include "arch/timing.h"
#include "common/serial.h"
#include "common/sparse_mem.h"
#include "core/block_cache.h"
#include "core/block_graph.h"
#include "core/coverage.h"
#include "elf/elf.h"
#include "fi/inject.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "soc/bus.h"
#include "soc/interrupts.h"
#include "trc/isa.h"

namespace cabt::iss {

/// A14 receives the return address on interrupt entry (the handler
/// returns with `ji a14` after signalling end-of-interrupt); programs
/// that take interrupts must keep A14 free.
constexpr int kIrqLinkRegister = 14;

/// Cycles charged when an interrupt is accepted (pipeline flush + the
/// vector fetch), at the block boundary where it is taken.
constexpr unsigned kIrqEntryCycles = 6;

enum class StopReason {
  kRunning,
  kHalted,
  /// BKPT executed: the pc rests past it, and the next run()/runUntil()
  /// resumes there, inside the same open block.
  kBreakpoint,
  kMaxInstructions,
  /// runUntil() reached its local-time limit; resumable. Returned, never
  /// stored, so it stays last: restoreState accepts the values before it.
  kCycleLimit,
};

struct IssStats {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t pipeline_cycles = 0;   ///< cycles from the issue schedule alone
  uint64_t branch_extra = 0;      ///< branch-outcome extra cycles
  uint64_t cache_penalty = 0;     ///< instruction-cache miss cycles
  uint64_t blocks = 0;            ///< executed basic blocks
  uint64_t icache_accesses = 0;
  uint64_t icache_misses = 0;
  uint64_t cond_branches = 0;
  uint64_t cond_taken = 0;
  uint64_t mispredicts = 0;
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;
  uint64_t irqs_taken = 0;        ///< interrupts accepted at block boundaries
  uint64_t irq_entry_cycles = 0;  ///< cycles charged for interrupt entry
  /// Blocks dispatched through the predecoded block cache (the rest ran
  /// on the per-instruction step() fallback). Not part of the
  /// architectural comparison between the two engines — nor are the
  /// dispatch-path counters below, which record *how* blocks were
  /// reached so the perf trajectory can explain why speed changed.
  uint64_t cached_blocks = 0;
  /// Dispatches whose block was resolved through a chained successor
  /// edge (no address lookup).
  uint64_t chain_hits = 0;
  /// Superblock (trace) entries, and blocks retired inside traces.
  uint64_t trace_dispatches = 0;
  uint64_t trace_blocks = 0;
  /// Early trace exits: the pc observed at an internal block boundary
  /// did not match the speculated next segment (branch went the
  /// non-dominant way, or an interrupt redirected control).
  uint64_t guard_bails = 0;
  /// Threaded-code accounting (also non-architectural): programs entered
  /// (a lowered block or whole trace each count one), instructions
  /// retired inside them, lowerings performed, and trace lowerings
  /// declined by the per-core trace op budget (core::kThreadedBudgetOps).
  uint64_t threaded_dispatches = 0;
  uint64_t threaded_instrs = 0;
  uint64_t threaded_lowerings = 0;
  uint64_t threaded_declined = 0;
};

/// One IssStats counter: its name and its member.
struct StatCounter {
  const char* name;
  uint64_t IssStats::*field;
};

/// Every IssStats counter, in declaration order: the order snapshots
/// serialize them in and the names metrics publish them under.
inline constexpr std::array<StatCounter, 24> kStatCounters = {{
    {"instructions", &IssStats::instructions},
    {"cycles", &IssStats::cycles},
    {"pipeline_cycles", &IssStats::pipeline_cycles},
    {"branch_extra", &IssStats::branch_extra},
    {"cache_penalty", &IssStats::cache_penalty},
    {"blocks", &IssStats::blocks},
    {"icache_accesses", &IssStats::icache_accesses},
    {"icache_misses", &IssStats::icache_misses},
    {"cond_branches", &IssStats::cond_branches},
    {"cond_taken", &IssStats::cond_taken},
    {"mispredicts", &IssStats::mispredicts},
    {"io_reads", &IssStats::io_reads},
    {"io_writes", &IssStats::io_writes},
    {"irqs_taken", &IssStats::irqs_taken},
    {"irq_entry_cycles", &IssStats::irq_entry_cycles},
    {"cached_blocks", &IssStats::cached_blocks},
    {"chain_hits", &IssStats::chain_hits},
    {"trace_dispatches", &IssStats::trace_dispatches},
    {"trace_blocks", &IssStats::trace_blocks},
    {"guard_bails", &IssStats::guard_bails},
    {"threaded_dispatches", &IssStats::threaded_dispatches},
    {"threaded_instrs", &IssStats::threaded_instrs},
    {"threaded_lowerings", &IssStats::threaded_lowerings},
    {"threaded_declined", &IssStats::threaded_declined},
}};
static_assert(sizeof(IssStats) == kStatCounters.size() * sizeof(uint64_t),
              "every IssStats counter is listed in kStatCounters");

/// The first 15 are the architectural counters, in digest order:
/// identical across both engines and warm/cold restores.
/// Iss::digestState hashes exactly these, and snap::firstMismatch
/// compares exactly these.
inline constexpr std::span<const StatCounter> kArchitecturalCounters =
    std::span(kStatCounters).first(15);
/// The rest are dispatch-path accounting: how blocks were reached, not
/// what they did.
inline constexpr std::span<const StatCounter> kDispatchPathCounters =
    std::span(kStatCounters).subspan(15);

struct IssConfig {
  bool model_timing = true;  ///< false = functional-only (no cycle counts)
  /// Detail-level knobs mirroring the translator's levels (see
  /// platform::issConfigFor); ignored when model_timing is false.
  /// model_branch_extras = false drops the dynamic branch-outcome cycles
  /// while keeping the outcome counters (cond_branches/mispredicts);
  /// model_icache = false disables the cache model entirely — no
  /// accesses, misses or penalty cycles are recorded.
  bool model_branch_extras = true;
  bool model_icache = true;
  /// The engine choice: true runs the threaded engine, false runs the
  /// step() reference throughout (the differential tests' reference and
  /// the dispatch ablation's baseline).
  bool use_block_cache = true;
  /// A block heads a superblock trace once dispatched this many times
  /// (traces are lowered on formation; single blocks at their first
  /// dispatch).
  uint32_t trace_threshold = 64;
  uint64_t max_instructions = 500'000'000;
  /// Additional block leaders (interrupt handler entries — reached only
  /// through the vector register, invisible to static control flow).
  std::vector<uint32_t> extra_leaders;
};

/// Per-executed-block timing record (enabled on demand; used by accuracy
/// tests to localise any deviation).
struct BlockRecord {
  uint32_t addr = 0;
  uint32_t pipeline_cycles = 0;
  uint32_t branch_extra = 0;
  uint32_t cache_penalty = 0;
};

/// Hot-count entry: how often one basic block was dispatched, and how
/// it was reached (through a chained successor edge / inside a trace).
struct HotBlock {
  uint32_t addr = 0;
  uint32_t instr_count = 0;
  uint64_t exec_count = 0;
  uint64_t chain_entries = 0;
  uint64_t trace_execs = 0;
  /// Enclosing function ("wait", "mac+0x8", ...) resolved through the
  /// image's symbol table; "0x...." when the image carries no symbol
  /// covering the address.
  std::string symbol;
};

/// The threaded-code handler set (defined in iss.cpp), specialized per
/// (timing, branch-extras) with the icache touch baked per op at
/// lowering time; befriended so handlers mutate ISS state directly.
template <bool Timing, bool BranchX>
struct ThreadedHandlers;

class Iss {
 public:
  /// `bus` may be null when the program performs no I/O. The bus clock
  /// follows the modelled cycle count lazily: at every return from run()
  /// and runUntil() it stands where advancing it at every sampled
  /// boundary would have left it.
  Iss(const arch::ArchDescription& desc, const elf::Object& object,
      soc::SocBus* bus = nullptr, IssConfig config = {});

  /// Runs until HALT/BKPT or the instruction limit, dispatching whole
  /// cached blocks when possible. After a BKPT stop it resumes with the
  /// next instruction; the block the BKPT sits in stays open, and both
  /// engines leave the same issue schedule and line tracking at the
  /// stop, so the stop digests identically and the resumed block costs
  /// what it costs without the stop (the translated code's cycles).
  StopReason run();
  /// Runs like run() but additionally yields with kCycleLimit once
  /// localTime() reaches `time_limit`, checked at basic-block boundaries
  /// (a slice may overshoot by the open block). This is the temporal-
  /// decoupling hook: a kernel-hosted core runs one quantum per
  /// activation and stays resumable.
  StopReason runUntil(uint64_t time_limit);

  /// Local time of this core: the modelled cycle count, or the retired
  /// instruction count in functional mode (model_timing = false), so
  /// functional cores still interleave and clock the bus deterministically.
  [[nodiscard]] uint64_t localTime() const;

  /// Connects the core's interrupt input: a device on this core's bus,
  /// so that the bus horizon covers it. Sampled at every basic-block
  /// boundary at or past the horizon (after the bus has been advanced to
  /// localTime()); with no bus, at every boundary. On delivery: A14 =
  /// return PC, PC = vector, kIrqEntryCycles charged.
  void attachIrq(soc::IrqSource* irq) { irq_ = irq; }

  /// Connects a fault injector (src/fi, DESIGN.md section 12), polled at
  /// basic-block boundaries through pollFaults() — the same due-time-
  /// ladder discipline as the interrupt sample and the PC sampler, so a
  /// scheduled fault lands at the identical boundary epoch across both
  /// engines and every tier. The injector is
  /// harness state: never serialized, never digested; nullptr detaches.
  void setInjector(fi::CoreInjector* injector) { injector_ = injector; }

  // -- observability hooks (src/obs, DESIGN.md section 11) --------------
  //
  // Observers are strictly read-only: enabling any of them cannot
  // change architectural state, IssStats, snap::digest, or bus traffic
  // — they record what happened, they never feed back. Disabled cost is
  // one null test per block boundary.

  /// Routes this core's timeline events (IRQ delivery instants, trace
  /// formation, guard bails) to `sink` on lane `lane` (obs::coreLane).
  void setTraceSink(obs::TraceSink* sink, uint32_t lane) {
    trace_sink_ = sink;
    trace_lane_ = lane;
  }
  /// Attaches a guest PC sampler, polled at basic-block boundaries.
  void setSampler(obs::PcSampler* sampler) { sampler_ = sampler; }
  /// Attaches an edge-coverage map (core/coverage.h): every block-
  /// boundary epoch folds the (previous boundary pc, current pc)
  /// transfer into the map. Same observer contract as the sampler —
  /// read-only, never serialized, never digested; nullptr detaches and
  /// resets the edge chain.
  void attachEdgeCoverage(core::EdgeCoverage* cov) {
    edge_cov_ = cov;
    cov_have_last_ = false;
  }
  /// Publishes every IssStats counter (plus a hot-block dispatch-count
  /// histogram) under `prefix` ("board.core0.iss").
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;
  /// The image's code-symbol index (always built; empty for symbol-less
  /// images). hotBlocks() and the profiler attribute through it.
  [[nodiscard]] const elf::SymbolIndex& symbols() const {
    return artifact_->symbols();
  }

  [[nodiscard]] uint32_t pc() const { return pc_; }
  /// Stop state of the last run()/runUntil() (kRunning while the core is
  /// resumable, including after a kCycleLimit yield).
  [[nodiscard]] StopReason stopReason() const { return stop_; }
  [[nodiscard]] uint32_t d(int i) const { return d_.at(i); }
  [[nodiscard]] uint32_t a(int i) const { return a_.at(i); }

  [[nodiscard]] const IssStats& stats() const { return stats_; }
  [[nodiscard]] SparseMemory& memory() { return mem_; }
  [[nodiscard]] const SparseMemory& memory() const { return mem_; }
  [[nodiscard]] const arch::ICacheState& icache() const { return icache_; }
  /// True when this core models the instruction cache (icache() is live).
  [[nodiscard]] bool icacheOn() const {
    return desc_.icache.enabled && config_.model_icache;
  }

  /// The `n` hottest blocks by dispatch count (block-cache engine only).
  [[nodiscard]] std::vector<HotBlock> hotBlocks(size_t n) const;

  void enableBlockTrace(bool on) { trace_blocks_ = on; }
  [[nodiscard]] const std::vector<BlockRecord>& blockTrace() const {
    return block_trace_;
  }

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // saveState captures everything the next instruction can observe:
  // architectural state (registers, pc, stop reason, memory) plus the
  // micro-architectural residue of the open block (pipeline scoreboard,
  // lazy-commit cycle accounting, icache tags/LRU, line tracking) and the
  // full IssStats record. The block graph, predecoded block cache and
  // superblock traces are host-side *derived* state — a pure function of
  // the immutable program image — and are never serialized: what exists
  // stays valid across a restore and anything missing rebuilds lazily,
  // so a restore into a cold process (no warm cache, no traces) reaches
  // the same architectural observables as the live core
  // (tests/snap_test.cpp).

  void saveState(serial::Writer& w) const;
  void restoreState(serial::Reader& r);

  /// Folds the core's contribution to the rolling state digest
  /// (snap::digest) into the running FNV-1a hash `h` and returns it: the
  /// architectural observables and micro-architectural timing state
  /// only — none of the dispatch-path counters (chain_hits, trace_*,
  /// guard_bails, threaded_*) that depend on how blocks were reached —
  /// so a warm continuation and a cold restore of the same run digest
  /// identically. The small fields go through a Writer; memory is
  /// hashed in place (SparseMemory::hashCanonical).
  [[nodiscard]] uint64_t digestState(uint64_t h) const;

 private:
  template <bool Timing, bool BranchX>
  friend struct ThreadedHandlers;

  /// dispatchThreadedTraceT() result meaning "yield with kCycleLimit
  /// now"; non-negative results chain into the next block, -1 falls back
  /// to lookup/stepping.
  static constexpr int32_t kDispatchYield = -3;

  const trc::Instr& fetch(uint32_t addr) const;
  void commitBlock();
  void finishBlock();
  uint32_t loadMem(uint32_t addr, unsigned size, bool sign);
  void storeMem(uint32_t addr, uint32_t value, unsigned size);
  /// Pays the recorded bus-clock advance (deferred_advance_). Runs on
  /// every return from run()/runUntil().
  [[gnu::noinline]] void flushBusClock();
  /// The step() engine: executes one instruction, with the block-boundary
  /// epoch first when the pc sits on a leader. Drives every run of the
  /// stepping engine, and the threaded engine's per-instruction
  /// fallback.
  StopReason step();
  [[nodiscard]] uint64_t currentCycle() const;
  /// The step() reference's decode switch: one instruction's semantics.
  void execute(const trc::Instr& instr);
  /// One icache line touch: access + miss accounting. The tagged form
  /// takes the set/tag of a cache analysis block from its block record.
  void icacheAccess(uint32_t addr);
  void icacheAccessTagged(uint32_t set, uint32_t want);
  StopReason runLoop(uint64_t time_limit);
  /// The threaded engine, specialized on model_timing (the block-entry
  /// bookkeeping depends on it; the handlers carry the other knobs).
  /// Every block is lowered into threaded code at its first dispatch and
  /// hot chains form traces (tested per block dispatch, never per
  /// instruction).
  template <bool Timing>
  StopReason runChainedT(uint64_t time_limit);
  /// Executes a lowered block via back-to-back handler dispatches; the
  /// timing/icache/branch-extra decisions are baked into the handlers,
  /// so only the block-entry bookkeeping is templated.
  template <bool Timing>
  void dispatchThreadedBlockT(core::ExecBlock& block,
                              const core::ThreadedProgram& prog);
  /// Executes a lowered superblock: runs each segment's handler chain,
  /// with the chained loop's boundary epoch (commit, yield, interrupt
  /// sample) plus the trace guard between segments, so every correction
  /// lands at an original block boundary. Returns the chained next-block
  /// index, -1 (resolve via lookup/stepping) or kDispatchYield (quantum
  /// expired at an internal boundary). Sets *epoch_done when it bailed
  /// *after* running a boundary's epoch, so the caller runs each epoch
  /// exactly once. Kept out of line so the chained loop's inlining does
  /// not shift with edits elsewhere in iss.cpp (timing comparisons credit
  /// the mechanism, not a layout change).
  template <bool Timing>
  [[gnu::noinline]] int32_t dispatchThreadedTraceT(
      const core::ThreadedProgram& prog, uint64_t time_limit,
      bool* epoch_done);
  /// The handler table matching this core's configured detail level
  /// (handlers are bound per (timing, branch-extras) with the icache
  /// touch decided per op at lowering).
  [[nodiscard]] core::ThreadedBinder threadedBinder() const;
  /// Resolves the retired block's successor through its precomputed
  /// edges by comparing pc_ (no lookup); updates the outcome counters.
  int32_t resolveNext(core::ExecBlock& block);
  /// resolveNext plus the stepping-engine re-warm for indirect jumps
  /// landing mid-block.
  template <bool Timing>
  int32_t afterBlock(core::ExecBlock& block);
  /// Interrupt epoch of a block boundary (callers test irq_ first):
  /// records the boundary's local time as the bus-clock advance this
  /// core owes, and samples only once that time reaches the bus horizon.
  /// Below it no device changes state or wants a sample, so the sample
  /// would return nothing and change nothing; the first boundary at or
  /// past a device event takes it. Without a bus every boundary samples.
  void irqEpoch() {
    deferred_advance_ = localTime();
    if (bus_ == nullptr || deferred_advance_ >= bus_->horizon()) {
      sampleIrq();
    }
  }
  /// The cold half of irqEpoch(): advances the bus to the boundary's
  /// time and samples the interrupt input; may redirect pc_.
  [[gnu::noinline]] void sampleIrq();
  /// Halt epoch: commits the open block and owes the bus an advance to
  /// the halt time, paid on return.
  void finishHaltedBlock() {
    finishBlock();
    deferred_advance_ = localTime();
  }
  /// Block-boundary observability epoch: polls the PC sampler. Placed
  /// beside the quantum-yield/interrupt checks in every engine; the
  /// sampler's due-time ladder makes repeated calls at one local time
  /// idempotent, so quantum yields cannot double-count.
  void observeBoundary() {
    if (sampler_ != nullptr) {
      sampler_->sample(localTime(), pc_);
    }
    if (edge_cov_ != nullptr) {
      recordCoverage();
    }
  }
  /// The cold half of the coverage poll. localTime() strictly increases
  /// across retired blocks, so re-observing one epoch (a quantum-yield
  /// resume) sees an unchanged time and records nothing — the same
  /// idempotency the sampler gets from its due-time ladder.
  void recordCoverage() {
    const uint64_t now = localTime();
    if (cov_have_last_ && now == cov_last_time_) {
      return;
    }
    if (cov_have_last_) {
      edge_cov_->recordEdge(cov_last_pc_, pc_);
    }
    cov_have_last_ = true;
    cov_last_time_ = now;
    cov_last_pc_ = pc_;
  }
  /// Block-boundary fault-injection epoch. Runs at the *first boundary
  /// epoch the engine does not yield at* with localTime() >= the fault's
  /// cycle: in the block engines it sits after the quantum-yield check
  /// (a yielding boundary re-runs its epoch on resume), in step() it sits
  /// between observeBoundary() and irqEpoch() (the stepping loop's
  /// yield check runs before step()). The ladder makes re-observation of
  /// one epoch idempotent — consumed faults never re-apply. Returns true
  /// when a fault fired (callers may need to re-resolve a chained block
  /// if the fault redirected pc_).
  bool pollFaults() {
    if (injector_ == nullptr || !injector_->due(localTime())) {
      return false;
    }
    return applyDueFaults();
  }
  /// Applies every fault with cycle <= localTime(); the cold half of
  /// pollFaults().
  bool applyDueFaults();
  [[nodiscard]] bool isLeader(uint32_t addr) const {
    return graph_.isLeaderFast(addr);
  }

  /// Builds the predecoded cache on first block-engine dispatch, so
  /// stepping-only and forced-per-instruction configurations never pay
  /// for it.
  core::BlockCache& blockCache();

  arch::ArchDescription desc_;
  IssConfig config_;
  soc::SocBus* bus_;
  soc::IrqSource* irq_ = nullptr;
  SparseMemory mem_;
  /// The shared, immutable decode of this core's image (held alive for
  /// the core's lifetime; every other core on the same image+config
  /// shares the same object through the ProgramArtifactCache).
  std::shared_ptr<const core::ProgramArtifact> artifact_;
  /// Alias for artifact_->graph(): the hot paths read block structure
  /// through it with zero indirection changes.
  const core::BlockGraph& graph_;
  std::unique_ptr<core::BlockCache> cache_;

  std::array<uint32_t, 16> d_{};
  std::array<uint32_t, 16> a_{};
  uint32_t pc_ = 0;
  StopReason stop_ = StopReason::kRunning;

  // Timing state. Both engines keep `live_pipe_` equal to the issue-
  // schedule cycles of the currently open block: the stepping engine
  // mirrors its PipelineTimer, the block engine assigns the precomputed
  // cumulative cycles directly.
  arch::PipelineTimer timer_;
  arch::ICacheState icache_;
  uint64_t committed_cycles_ = 0;  ///< includes finished blocks + penalties
  uint64_t live_pipe_ = 0;         ///< pipeline cycles of the open block
  bool have_line_ = false;
  uint32_t last_line_ = 0;
  BlockRecord current_block_{};
  bool in_block_ = false;
  bool trace_blocks_ = false;
  std::vector<BlockRecord> block_trace_;

  // Lazy bus clock. `deferred_advance_` is the local time of the latest
  // bus-clock advance this core owes: its latest boundary with an
  // interrupt input, or its halt. flushBusClock() pays it on every
  // return. Advances act as a running maximum, so the latest time
  // subsumes the earlier ones. Never serialized: nothing is owed
  // between runs.
  uint64_t deferred_advance_ = 0;

  // Fault injection (never serialized, never digested — harness state,
  // like the observability hooks below). `exec_ranges_` guards kMemWord
  // faults away from code: the predecoded block graph is built from the
  // image at construction and flipping instruction bytes would desync it
  // from memory.
  fi::CoreInjector* injector_ = nullptr;
  std::vector<std::pair<uint32_t, uint32_t>> exec_ranges_;  ///< [lo, hi)

  // Observability (never serialized, never digested — see the hook
  // comment above).
  obs::TraceSink* trace_sink_ = nullptr;
  uint32_t trace_lane_ = 0;
  obs::PcSampler* sampler_ = nullptr;
  core::EdgeCoverage* edge_cov_ = nullptr;
  uint64_t cov_last_time_ = 0;
  uint32_t cov_last_pc_ = 0;
  bool cov_have_last_ = false;

  IssStats stats_;
};

}  // namespace cabt::iss
