// cabt_bench: one workload of the end-to-end benchmark per process.
//
//   cabt_bench --workload W --seed N --seconds S [--trace 0|1]
//              [--trace-dir DIR] [--tmp DIR]
//
// Workloads (README.md says why each exists):
//   paper_xlat     image -> acquire -> xlat::translate -> EmulationPlatform
//                  -> run, seven paper programs + eight generated ones, at
//                  all four detail levels;
//   paper_iss      the same programs on the reference board (ISS on the
//                  event kernel) at the four matching ISS configurations;
//   soc_multicore  mc_quad and irq_ticks: a checkpointing walk plus seeded
//                  snapshot seeks (restore, runTo, digest);
//   fuzz_campaign  short fuzz::Farm::run campaigns from a fixed corpus.
//
// A round is a fixed amount of work that depends only on the seed, so
// every round of one process repeats the same modelled counts exactly.
// Rounds run until --seconds of wall time have passed; set-up (building
// inputs, reference runs for the checks, one warm-up round) repeats
// between them and its median is reported. With --trace 1 the first
// half of the time runs untraced and the second half traced, so the
// tracing overhead and the per-layer split come from one process.
// End-to-end timings are scaled to a reference host speed measured by a
// calibration kernel that runs between runs (see calibrationChunk).
//
// Prints one JSON record on stdout (run.py turns it into the table and
// the result line); diagnostics go to stderr. Exits 1 when any check
// failed, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/program_artifact.h"
#include "fuzz/farm.h"
#include "fuzz/program_gen.h"
#include "obs/metrics.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "spans.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace e2e {
namespace {

using namespace cabt;

constexpr std::array<xlat::DetailLevel, 4> kLevels = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};
constexpr std::array<const char*, 4> kLevelNames = {"functional", "static",
                                                     "branch", "icache"};
constexpr size_t kStatic = 1;
constexpr size_t kICache = 3;

/// Generated programs per paper workload; the seven paper programs have
/// fixed inputs, these carry the seed.
constexpr size_t kGeneratedPrograms = 8;
/// soc_multicore: seek targets and checkpoints per scenario.
constexpr size_t kSeekTargets = 16;
constexpr size_t kCheckpoints = 8;
/// Set-up repeats: at least kMinSetups, and enough to take about
/// kSetupShare of the untraced phase.
constexpr size_t kMinSetups = 3;
constexpr double kSetupShare = 0.1;
/// Host-speed calibration: iterations per chunk, the share of the timed
/// phases the chunks take, and the median chunk time of the reference
/// host (the 4-vCPU machine the bounds in BENCHMARK.json were set on).
constexpr uint32_t kCalibIters = 200'000;
constexpr double kCalibShare = 0.04;
constexpr double kCalibRefNs = 2.2e6;
/// fuzz_campaign: generator seed of the bootstrap corpus; campaigns per
/// round and candidates per campaign.
constexpr uint32_t kBootstrapSeed = 1;
constexpr uint32_t kCampaigns = 8;
constexpr uint64_t kCampaignCandidates = 50;

// ---- per-round modelled counts ---------------------------------------------

enum Count : uint8_t {
  kDecodes,
  kHits,
  kXlatBlocks,
  kXlatPackets,
  kXlatOps,
  kXlatBytes,
  kXlatSourceInstrs,
  kVliwCycles,
  kVliwPackets,
  kVliwOps,
  kVliwStalls,
  kVliwNops,
  kSyncGenerated,
  kSyncStalls,
  kSyncCorrection,
  kPaperInstrsStatic,
  kPaperCyclesStatic,
  kPaperInstrsICache,
  kPaperCyclesICache,
  kIssInstrs,
  kIssCycles,
  kIssBlocks,
  kIssCachedBlocks,
  kIssChainHits,
  kIssTraceDispatches,
  kIssGuardBails,
  kSimEvents,
  kSocCycles,
  kBusReads,
  kBusWrites,
  kSnapBytesSaved,
  kSnapBytesRestored,
  kSnapSaves,
  kSnapRestores,
  kSnapDigests,
  kFuzzCandidates,
  kFuzzInvalid,
  kFuzzExecs,
  kFuzzAdds,
  kFuzzCoverage,
  kFuzzForkHits,
  kFuzzForkMisses,
  kFuzzFindings,
  kRuns,
  kCountFields
};

constexpr std::array<const char*, kCountFields> kCountNames = {
    "core.decodes",         "core.hits",
    "xlat.blocks",          "xlat.packets",
    "xlat.machine_ops",     "xlat.code_bytes",
    "xlat.source_instructions", "vliw.cycles",
    "vliw.packets",         "vliw.ops",
    "vliw.stall_cycles",    "vliw.nop_cycles",
    "sync.generated_cycles", "sync.stall_cycles",
    "sync.correction_cycles", "paper.instructions_static",
    "paper.v6x_cycles_static", "paper.instructions_icache",
    "paper.v6x_cycles_icache", "iss.instructions",
    "iss.cycles",           "iss.blocks",
    "iss.cached_blocks",    "iss.chain_hits",
    "iss.trace_dispatches", "iss.guard_bails",
    "sim.events_dispatched", "soc.cycles",
    "soc.bus_reads",        "soc.bus_writes",
    "snap.bytes_saved",     "snap.bytes_restored",
    "snap.saves",           "snap.restores",
    "snap.digests",         "fuzz.candidates",
    "fuzz.invalid",         "fuzz.oracle_execs",
    "fuzz.corpus_adds",     "fuzz.coverage_bits",
    "fuzz.fork_hits",       "fuzz.fork_misses",
    "fuzz.findings",        "runs"};

using Counts = std::array<uint64_t, kCountFields>;

/// One run of a round. Rounds repeat the same runs in the same order, so
/// slot i of every round is the same piece of work.
struct Slot {
  int64_t ns = 0;       ///< timed work: the run minus the checks inside it
  int level = -1;       ///< detail level index (paper workloads)
  uint64_t instrs = 0;  ///< reference instructions (paper workloads)
  bool seek = false;    ///< a snapshot seek (soc_multicore)
  uint64_t runs = 1;    ///< runs the slot stands for (fuzz: candidates)
};

struct RoundResult {
  Counts counts{};
  std::vector<Slot> slots;
};

// ---- host-speed calibration ------------------------------------------------

/// The calibration kernel: a fixed, branchy, table-walking loop that is
/// the benchmark's own code, so no change to the library can move it.
/// Chunks of it run between runs; the median chunk time, set against
/// kCalibRefNs, says how fast the host ran during this process. The
/// table is walked once untimed first, so how much of it the last run
/// evicted from the caches does not leak into the timing.
int64_t calibrationChunk() {
  constexpr uint32_t kMask = (1u << 14) - 1;  // a 64 KiB table
  static std::array<uint32_t, kMask + 1> table{};
  uint32_t acc = 0;
  for (const uint32_t v : table) {
    acc += v;
  }
  const int64_t t0 = nowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < kCalibIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t idx = static_cast<uint32_t>(x) & kMask;
    switch ((x >> 32) & 7) {
      case 0: acc += table[idx]; break;
      case 1: table[idx] = acc; break;
      case 2: acc ^= static_cast<uint32_t>(x >> 40); break;
      case 3: acc = acc * 33 + 7; break;
      case 4: table[(idx + acc) & kMask] += 1; break;
      case 5: acc -= table[idx ^ 0x55u]; break;
      case 6: acc = (acc >> 3) | (acc << 29); break;
      default: acc += i; break;
    }
  }
  const int64_t ns = nowNs() - t0;
  table[0] += acc;  // keeps the loop observable
  return ns;
}

// ---- shared context ----------------------------------------------------------

struct Context {
  arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  uint32_t seed = 1;
  std::string tmp_dir;
  Tracer tracer;
  int64_t next_run = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Calibration: on during the timed phases, when chunks keep to about
  /// kCalibShare of the time since `calib_since`.
  bool calibrating = false;
  int64_t calib_since = 0;
  int64_t calib_ns = 0;
  std::vector<double> calib_speeds;  ///< kCalibRefNs / chunk time, per chunk

  /// Runs calibration chunks until they have had their share of time;
  /// called between runs, outside any run's timing.
  void calibrateIfDue() {
    while (calibrating && static_cast<double>(calib_ns) <
                              kCalibShare *
                                  static_cast<double>(nowNs() - calib_since)) {
      Span s(tracer, kCalibrate);
      const int64_t ns = calibrationChunk();
      calib_ns += ns;
      calib_speeds.push_back(kCalibRefNs / static_cast<double>(ns));
    }
  }

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) {
      failures.push_back(what);
    }
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      fail(what);
    }
  }
};

/// Times one run: the wall time from construction to finish(), minus the
/// time spent in checks. Opens the run span and tags it with a fresh id.
class RunClock {
 public:
  explicit RunClock(Context& ctx) : ctx_(ctx) {
    ctx.tracer.setRun(ctx.next_run++);
    t0_ = nowNs();
    span_.emplace(ctx.tracer, kRun);
  }
  /// Runs `fn` as a check: its time is excluded from the run.
  template <typename Fn>
  void check(Fn&& fn) {
    const int64_t c0 = nowNs();
    {
      Span s(ctx_.tracer, kCheck);
      fn();
    }
    check_ns_ += nowNs() - c0;
  }
  /// Closes the run; returns its timed nanoseconds.
  int64_t finish() {
    span_.reset();
    const int64_t ns = nowNs() - t0_ - check_ns_;
    ctx_.calibrateIfDue();
    return ns;
  }

 private:
  Context& ctx_;
  int64_t t0_ = 0;
  int64_t check_ns_ = 0;
  std::optional<Span> span_;
};

template <typename Fn>
auto traced(Context& ctx, Layer layer, Fn&& fn) {
  Span s(ctx.tracer, layer);
  return fn();
}

uint32_t derivedSeed(uint32_t seed, uint32_t salt) {
  std::seed_seq seq{seed, salt};
  std::array<uint32_t, 1> out{};
  seq.generate(out.begin(), out.end());
  return out[0];
}

// ---- paper workloads ---------------------------------------------------------

struct Program {
  std::string name;
  bool paper = false;  ///< one of the seven paper programs (fixed input)
  elf::Object image;
  uint32_t result_addr = 0;  ///< source address of `result` (paper only)
  uint32_t checksum = 0;     ///< reference `result` word (paper only)
  uint32_t d9 = 0;           ///< reference final d9 (generated only)
  uint64_t instructions = 0;
  std::array<uint64_t, 4> cycles{};  ///< reference ISS cycles per level
};

/// Builds the programs and their references: the standalone ISS at every
/// level gives the instruction count, the cycles per level, the paper
/// checksums and the generated programs' final d9.
std::vector<Program> buildPrograms(Context& ctx) {
  std::vector<Program> progs;
  std::vector<std::string> names = workloads::figure5Names();
  names.push_back("fibonacci");
  for (const std::string& name : names) {
    const workloads::Workload& w = workloads::get(name);
    Program p;
    p.name = name;
    p.paper = true;
    p.image = workloads::assemble(w);
    p.result_addr = p.image.findSymbol("result")->value;
    progs.push_back(std::move(p));
  }
  for (size_t i = 0; i < kGeneratedPrograms; ++i) {
    const uint32_t gen_seed = derivedSeed(ctx.seed, static_cast<uint32_t>(i));
    const std::string source =
        fuzz::ProgramGenerator(fuzz::GeneratorConfig{gen_seed, false})
            .generate();
    Program p;
    p.name = "gen" + std::to_string(i) + "_" + std::to_string(gen_seed);
    p.image = trc::assemble(source);
    progs.push_back(std::move(p));
  }
  for (Program& p : progs) {
    for (size_t l = 0; l < kLevels.size(); ++l) {
      iss::Iss ref(ctx.desc, p.image, nullptr,
                   platform::issConfigFor(kLevels[l]));
      ctx.check(ref.run() == iss::StopReason::kHalted,
                p.name + ": reference ISS did not halt");
      p.cycles[l] = ref.stats().cycles;
      if (l == 0) {
        p.instructions = ref.stats().instructions;
        p.d9 = ref.d(9);
        if (p.paper) {
          p.checksum = ref.memory().read32(p.result_addr);
          const auto& expected = workloads::get(p.name).expected_checksum;
          ctx.check(!expected || *expected == p.checksum,
                    p.name + ": reference checksum differs from the paper's");
        }
      }
      ctx.check(ref.stats().instructions == p.instructions,
                p.name + ": instruction count differs across ISS levels");
    }
  }
  return progs;
}

class PaperWorkload {
 public:
  PaperWorkload(Context& ctx, bool translated)
      : ctx_(ctx), translated_(translated) {}

  void setup() {
    progs_ = buildPrograms(ctx_);
    remap_ = ctx_.desc.memory_map.findNamed("ram");
    if (translated_) {
      checkFinalStates();
    }
  }

  RoundResult round() {
    RoundResult r;
    const auto before = core::ProgramArtifactCache::instance().stats();
    for (const Program& p : progs_) {
      for (size_t l = 0; l < kLevels.size(); ++l) {
        const int64_t ns = translated_ ? xlatRun(p, l, r) : issRun(p, l, r);
        r.slots.push_back({ns, static_cast<int>(l), p.instructions, false});
        ++r.counts[kRuns];
      }
    }
    const auto after = core::ProgramArtifactCache::instance().stats();
    r.counts[kDecodes] = after.decodes - before.decodes;
    r.counts[kHits] = after.hits - before.hits;
    ctx_.check(r.counts[kDecodes] == r.counts[kRuns],
               "artifact decodes differ from pipeline runs");
    return r;
  }

 private:
  /// Set-up check, for every program at every level: the translated
  /// image ends in the reference ISS's architectural state.
  void checkFinalStates() {
    for (const Program& p : progs_) {
      iss::Iss ref(ctx_.desc, p.image, nullptr,
                   platform::issConfigFor(xlat::DetailLevel::kICache));
      ref.run();
      for (const xlat::DetailLevel level : kLevels) {
        xlat::TranslateOptions opts;
        opts.level = level;
        const xlat::TranslationResult tr =
            xlat::translate(ctx_.desc, p.image, opts);
        platform::EmulationPlatform plat(ctx_.desc, tr.image);
        plat.run();
        const std::string diff =
            platform::compareFinalState(ctx_.desc, ref, plat, p.image);
        ctx_.check(diff.empty(), p.name + " at " +
                                     xlat::detailLevelName(level) + ": " +
                                     diff);
      }
    }
  }

  int64_t xlatRun(const Program& p, size_t l, RoundResult& r) {
    RunClock clock(ctx_);
    auto art = traced(ctx_, kAcquire, [&] {
      return core::ProgramArtifactCache::instance().acquire(ctx_.desc,
                                                            p.image);
    });
    xlat::TranslateOptions opts;
    opts.level = kLevels[l];
    auto tr = traced(ctx_, kTranslate, [&] {
      return std::make_unique<xlat::TranslationResult>(
          xlat::translate(ctx_.desc, p.image, opts));
    });
    auto plat = traced(ctx_, kLoad, [&] {
      return std::make_unique<platform::EmulationPlatform>(ctx_.desc,
                                                           tr->image);
    });
    const platform::RunResult run =
        traced(ctx_, kPlatformRun, [&] { return plat->run(); });
    clock.check([&] {
      Counts& c = r.counts;
      ctx_.check(run.state == vliw::RunState::kHalted,
                 p.name + ": translated run did not halt");
      if (p.paper) {
        ctx_.check(plat->sim().memory().read32(remap_->remap(p.result_addr)) ==
                       p.checksum,
                   p.name + ": translated checksum differs");
      } else {
        ctx_.check(plat->srcD(9) == p.d9, p.name + ": translated d9 differs");
      }
      if (l == kICache) {
        ctx_.check(run.generated_cycles == p.cycles[kICache],
                   p.name + ": generated cycles differ from the ISS");
      }
      const xlat::TranslationStats& ts = tr->stats;
      c[kXlatBlocks] += ts.blocks;
      c[kXlatPackets] += ts.packets;
      c[kXlatOps] += ts.machine_ops;
      c[kXlatBytes] += ts.code_bytes;
      c[kXlatSourceInstrs] += ts.source_instructions;
      const vliw::SimStats& vs = plat->sim().stats();
      c[kVliwCycles] += vs.cycles;
      c[kVliwPackets] += vs.packets;
      c[kVliwOps] += vs.ops;
      c[kVliwStalls] += vs.stall_cycles;
      c[kVliwNops] += vs.nop_cycles;
      c[kSyncGenerated] += run.generated_cycles;
      c[kSyncStalls] += run.sync_stall_cycles;
      c[kSyncCorrection] += run.correction_cycles;
      if (p.paper && l == kStatic) {
        c[kPaperInstrsStatic] += p.instructions;
        c[kPaperCyclesStatic] += run.vliw_cycles;
      }
      if (p.paper && l == kICache) {
        c[kPaperInstrsICache] += p.instructions;
        c[kPaperCyclesICache] += run.vliw_cycles;
      }
    });
    {
      Span s(ctx_.tracer, kTeardown);
      plat.reset();
      tr.reset();
      art.reset();
    }
    return clock.finish();
  }

  int64_t issRun(const Program& p, size_t l, RoundResult& r) {
    RunClock clock(ctx_);
    auto art = traced(ctx_, kAcquire, [&] {
      return core::ProgramArtifactCache::instance().acquire(ctx_.desc,
                                                            p.image);
    });
    auto board = traced(ctx_, kBoardCtor, [&] {
      return std::make_unique<platform::ReferenceBoard>(
          ctx_.desc, p.image, platform::issConfigFor(kLevels[l]));
    });
    const iss::StopReason stop =
        traced(ctx_, kBoardRun, [&] { return board->run(); });
    clock.check([&] {
      Counts& c = r.counts;
      const iss::IssStats& s = board->iss().stats();
      ctx_.check(stop == iss::StopReason::kHalted,
                 p.name + ": board run did not halt");
      ctx_.check(s.instructions == p.instructions && s.cycles == p.cycles[l],
                 p.name + " at " + kLevelNames[l] +
                     ": board counts differ from the standalone ISS");
      if (p.paper) {
        ctx_.check(board->iss().memory().read32(p.result_addr) == p.checksum,
                   p.name + ": board checksum differs");
      } else {
        ctx_.check(board->iss().d(9) == p.d9, p.name + ": board d9 differs");
      }
      c[kIssInstrs] += s.instructions;
      c[kIssCycles] += s.cycles;
      c[kIssBlocks] += s.blocks;
      c[kIssCachedBlocks] += s.cached_blocks;
      c[kIssChainHits] += s.chain_hits;
      c[kIssTraceDispatches] += s.trace_dispatches;
      c[kIssGuardBails] += s.guard_bails;
      c[kSimEvents] += board->kernel().eventsDispatched();
      c[kSocCycles] += board->kernel().now();
      obs::MetricsRegistry reg;
      board->board().bus.publishMetrics(reg, "");
      c[kBusReads] += reg.counterOr("reads");
      c[kBusWrites] += reg.counterOr("writes");
    });
    {
      Span s(ctx_.tracer, kTeardown);
      board.reset();
      art.reset();
    }
    return clock.finish();
  }

  Context& ctx_;
  bool translated_;
  std::vector<Program> progs_;
  const MemRegion* remap_ = nullptr;
};

// ---- soc_multicore -----------------------------------------------------------

/// Sums the ISS counters over a board's cores.
iss::IssStats coreTotals(const platform::ReferenceBoard& board) {
  iss::IssStats t;
  for (size_t i = 0; i < board.numCores(); ++i) {
    const iss::IssStats& s = board.core(i).stats();
    t.instructions += s.instructions;
    t.cycles += s.cycles;
    t.blocks += s.blocks;
    t.cached_blocks += s.cached_blocks;
    t.chain_hits += s.chain_hits;
    t.trace_dispatches += s.trace_dispatches;
    t.guard_bails += s.guard_bails;
  }
  return t;
}

std::pair<uint64_t, uint64_t> busTraffic(const platform::ReferenceBoard& b) {
  obs::MetricsRegistry reg;
  b.board().bus.publishMetrics(reg, "");
  return {reg.counterOr("reads"), reg.counterOr("writes")};
}

class SocWorkload {
 public:
  explicit SocWorkload(Context& ctx) : ctx_(ctx) {}

  void setup() {
    scenarios_.clear();
    scenarios_.reserve(2);  // scenarios hold pointers into their own images
    addScenario("mc_quad",
                {"mc_producer", "mc_consumer", "mc_worker", "mc_worker"});
    addScenario("irq_ticks", {"irq_ticks"});
  }

  RoundResult round() {
    RoundResult r;
    const auto before = core::ProgramArtifactCache::instance().stats();
    for (const Scenario& s : scenarios_) {
      // The benchmark holds each image's artifact for the whole scenario,
      // so the round decodes each distinct image once.
      std::vector<std::shared_ptr<const core::ProgramArtifact>> held;
      for (const elf::Object* image : s.distinct) {
        held.push_back(traced(ctx_, kAcquire, [&] {
          return core::ProgramArtifactCache::instance().acquire(
              ctx_.desc, *image, s.cfg.iss.extra_leaders);
        }));
      }
      std::map<sim::Cycle, uint64_t> walk_digests;
      std::map<sim::Cycle, std::vector<uint8_t>> checkpoints;
      r.slots.push_back({walk(s, r, walk_digests, checkpoints)});
      ++r.counts[kRuns];
      for (const sim::Cycle target : s.targets) {
        r.slots.push_back(
            {seek(s, target, r, walk_digests, checkpoints), -1, 0, true});
        ++r.counts[kRuns];
      }
      Span t(ctx_.tracer, kTeardown);
      held.clear();
    }
    const auto after = core::ProgramArtifactCache::instance().stats();
    r.counts[kDecodes] = after.decodes - before.decodes;
    r.counts[kHits] = after.hits - before.hits;
    size_t distinct = 0;
    for (const Scenario& s : scenarios_) {
      distinct += s.distinct.size();
    }
    ctx_.check(r.counts[kDecodes] == distinct,
               "artifact decodes differ from the distinct images");
    return r;
  }

 private:
  struct Scenario {
    std::string name;
    std::vector<elf::Object> images;
    std::vector<const elf::Object*> image_ptrs;
    std::vector<const elf::Object*> distinct;
    std::vector<uint32_t> checksums;
    platform::BoardConfig cfg;
    std::vector<sim::Cycle> checkpoint_cycles;  ///< includes cycle 0
    std::vector<sim::Cycle> targets;            ///< seek order (seeded)
  };

  void addScenario(const std::string& name,
                   const std::vector<std::string>& programs) {
    Scenario s;
    s.name = name;
    s.cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
    s.cfg.quantum = 256;
    s.images.reserve(programs.size());
    std::set<std::string> seen;
    for (const std::string& prog : programs) {
      const workloads::Workload& w = workloads::get(prog);
      s.images.push_back(workloads::assemble(w));
      s.checksums.push_back(w.expected_checksum.value_or(0));
      if (!w.irq_handler.empty()) {
        s.cfg.iss.extra_leaders.push_back(
            platform::symbolAddr(s.images.back(), w.irq_handler));
      }
      if (seen.insert(prog).second) {
        s.distinct.push_back(&s.images.back());
      }
    }
    for (const elf::Object& obj : s.images) {
      s.image_ptrs.push_back(&obj);
    }
    // Reference run to halt: its length places checkpoints and targets.
    platform::ReferenceBoard ref(ctx_.desc, s.image_ptrs, s.cfg);
    ctx_.check(ref.run() == iss::StopReason::kHalted,
               name + ": reference board did not halt");
    const sim::Cycle end = ref.kernel().now();
    checkChecksums(s, ref);
    const sim::Cycle interval = (end + kCheckpoints - 1) / kCheckpoints;
    for (sim::Cycle c = 0; c < end; c += interval) {
      s.checkpoint_cycles.push_back(c);
    }
    // One target in each sixteenth of the run, at a seeded offset: the
    // seed moves every target while the spread of seek distances, and so
    // the cost of a round, stays about the same.
    std::mt19937_64 rng(derivedSeed(
        ctx_.seed, 0x50c0u + static_cast<uint32_t>(scenarios_.size())));
    for (size_t j = 0; j < kSeekTargets; ++j) {
      std::uniform_int_distribution<sim::Cycle> pick(
          1 + j * (end - 1) / kSeekTargets,
          (j + 1) * (end - 1) / kSeekTargets);
      s.targets.push_back(pick(rng));
    }
    scenarios_.push_back(std::move(s));
  }

  void checkChecksums(const Scenario& s, platform::ReferenceBoard& board) {
    for (size_t i = 0; i < s.images.size(); ++i) {
      ctx_.check(workloads::readChecksum(s.images[i], board.core(i).memory()) ==
                     s.checksums[i],
                 s.name + ": core " + std::to_string(i) + " checksum differs");
    }
  }

  std::unique_ptr<platform::ReferenceBoard> makeBoard(const Scenario& s) {
    return traced(ctx_, kBoardCtor, [&] {
      return std::make_unique<platform::ReferenceBoard>(ctx_.desc,
                                                        s.image_ptrs, s.cfg);
    });
  }

  /// Work counters of a board, read between runs.
  struct Tally {
    iss::IssStats iss;
    uint64_t events = 0;
    sim::Cycle now = 0;
    std::pair<uint64_t, uint64_t> bus;
  };
  static Tally tally(const platform::ReferenceBoard& b) {
    return {coreTotals(b), b.kernel().eventsDispatched(), b.kernel().now(),
            busTraffic(b)};
  }

  /// Runs the board to `limit` and counts the work done on the way (the
  /// counting is a check, outside the run's time).
  void runTo(RunClock& clock, platform::ReferenceBoard& b, sim::Cycle limit,
             RoundResult& r) {
    Tally t0;
    clock.check([&] { t0 = tally(b); });
    traced(ctx_, kBoardRun, [&] { return b.runTo(limit); });
    clock.check([&] {
      const Tally t1 = tally(b);
      Counts& c = r.counts;
      c[kIssInstrs] += t1.iss.instructions - t0.iss.instructions;
      c[kIssCycles] += t1.iss.cycles - t0.iss.cycles;
      c[kIssBlocks] += t1.iss.blocks - t0.iss.blocks;
      c[kIssCachedBlocks] += t1.iss.cached_blocks - t0.iss.cached_blocks;
      c[kIssChainHits] += t1.iss.chain_hits - t0.iss.chain_hits;
      c[kIssTraceDispatches] +=
          t1.iss.trace_dispatches - t0.iss.trace_dispatches;
      c[kIssGuardBails] += t1.iss.guard_bails - t0.iss.guard_bails;
      c[kSimEvents] += t1.events - t0.events;
      c[kSocCycles] += t1.now - t0.now;
      c[kBusReads] += t1.bus.first - t0.bus.first;
      c[kBusWrites] += t1.bus.second - t0.bus.second;
    });
  }

  uint64_t digest(const platform::ReferenceBoard& b, RoundResult& r) {
    ++r.counts[kSnapDigests];
    return traced(ctx_, kDigest, [&] { return snap::digest(b); });
  }

  /// The straight walk: one board through every checkpoint and target in
  /// cycle order, then on to halt. Saves at checkpoints, digests at both.
  int64_t walk(const Scenario& s, RoundResult& r,
               std::map<sim::Cycle, uint64_t>& digests,
               std::map<sim::Cycle, std::vector<uint8_t>>& checkpoints) {
    RunClock clock(ctx_);
    std::vector<std::pair<sim::Cycle, bool>> points;  // (cycle, checkpoint?)
    for (const sim::Cycle c : s.checkpoint_cycles) {
      points.emplace_back(c, true);
    }
    for (const sim::Cycle t : s.targets) {
      points.emplace_back(t, false);
    }
    std::sort(points.begin(), points.end());
    auto board = makeBoard(s);
    for (const auto& [cycle, is_checkpoint] : points) {
      if (cycle > 0) {
        runTo(clock, *board, cycle, r);
      }
      if (is_checkpoint) {
        std::vector<uint8_t> bytes =
            traced(ctx_, kSave, [&] { return snap::save(*board); });
        ++r.counts[kSnapSaves];
        r.counts[kSnapBytesSaved] += bytes.size();
        checkpoints[cycle] = std::move(bytes);
      }
      const uint64_t d = digest(*board, r);
      if (!is_checkpoint) {
        digests[cycle] = d;
      }
    }
    runTo(clock, *board, std::numeric_limits<sim::Cycle>::max(), r);
    clock.check([&] {
      for (size_t i = 0; i < board->numCores(); ++i) {
        ctx_.check(board->core(i).stopReason() == iss::StopReason::kHalted,
                   s.name + ": walk did not halt core " + std::to_string(i));
      }
      checkChecksums(s, *board);
    });
    {
      Span t(ctx_.tracer, kTeardown);
      board.reset();
    }
    return clock.finish();
  }

  /// One seek: a fresh board restores the nearest earlier checkpoint and
  /// runs to the target; its digest must match the walk's.
  int64_t seek(const Scenario& s, sim::Cycle target, RoundResult& r,
               const std::map<sim::Cycle, uint64_t>& digests,
               const std::map<sim::Cycle, std::vector<uint8_t>>& checkpoints) {
    RunClock clock(ctx_);
    auto board = makeBoard(s);
    const auto& [cycle, bytes] = *std::prev(checkpoints.upper_bound(target));
    traced(ctx_, kRestore, [&] {
      snap::restore(*board, bytes);
      return 0;
    });
    ++r.counts[kSnapRestores];
    r.counts[kSnapBytesRestored] += bytes.size();
    runTo(clock, *board, target, r);
    const uint64_t d = digest(*board, r);
    clock.check([&] {
      ctx_.check(d == digests.at(target),
                 s.name + ": seek to " + std::to_string(target) + " from " +
                     std::to_string(cycle) + " digests differently");
    });
    {
      Span t(ctx_.tracer, kTeardown);
      board.reset();
    }
    return clock.finish();
  }

  Context& ctx_;
  std::vector<Scenario> scenarios_;
};

// ---- fuzz_campaign -----------------------------------------------------------

class FuzzWorkload {
 public:
  explicit FuzzWorkload(Context& ctx) : ctx_(ctx) {}

  ~FuzzWorkload() {
    std::error_code ec;
    std::filesystem::remove_all(boot_dir_, ec);
  }
  FuzzWorkload(const FuzzWorkload&) = delete;
  FuzzWorkload& operator=(const FuzzWorkload&) = delete;

  /// Bootstraps the corpus every campaign starts from. It comes from a
  /// fixed generator seed, not from --seed: the seed drives the mutation
  /// walk only, so campaigns of different seeds cost about the same.
  void setup() {
    boot_dir_ = dirFor("boot");
    fuzz::FarmConfig cfg;
    cfg.corpus_dir = boot_dir_;
    cfg.seed = kBootstrapSeed;
    cfg.max_execs = 1;  // write the bootstrap entries, admit one, stop
    fuzz::Farm(cfg).run();
  }

  /// kCampaigns campaigns, each from the bootstrap corpus with its own
  /// seed derived from --seed. Averaging short campaigns keeps the cost of
  /// a round nearly the same from seed to seed, where the trajectory of
  /// one long campaign would not.
  RoundResult round() {
    RoundResult r;
    const auto before = core::ProgramArtifactCache::instance().stats();
    for (uint32_t k = 0; k < kCampaigns; ++k) {
      const std::string dir = dirFor(std::to_string(campaigns_++));
      {
        Span s(ctx_.tracer, kCheck);
        std::filesystem::copy(boot_dir_, dir);
      }
      fuzz::FarmConfig cfg;
      cfg.corpus_dir = dir;
      cfg.seed = derivedSeed(ctx_.seed, k);
      cfg.max_candidates = kCampaignCandidates;
      cfg.minimize = false;
      fuzz::Farm farm(cfg);
      RunClock clock(ctx_);
      const fuzz::FarmStats st =
          traced(ctx_, kFarmRun, [&] { return farm.run(); });
      clock.check([&] {
        ctx_.check(st.findings == 0,
                   "fuzz campaign reported " + std::to_string(st.findings) +
                       " findings" +
                       (st.finding_mismatches.empty()
                            ? std::string()
                            : ": " + st.finding_mismatches.front()));
        ctx_.check(st.candidates == kCampaignCandidates,
                   "fuzz campaign stopped after " +
                       std::to_string(st.candidates) + " candidates");
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        Counts& c = r.counts;
        c[kFuzzCandidates] += st.candidates;
        c[kFuzzInvalid] += st.invalid;
        c[kFuzzExecs] += st.oracle_execs;
        c[kFuzzAdds] += st.corpus_adds;
        c[kFuzzCoverage] += st.coverage_bits;
        c[kFuzzForkHits] += st.fork_hits;
        c[kFuzzForkMisses] += st.fork_misses;
        c[kFuzzFindings] += st.findings;
        c[kRuns] += st.candidates;
      });
      r.slots.push_back({clock.finish(), -1, 0, false, st.candidates});
    }
    const auto after = core::ProgramArtifactCache::instance().stats();
    r.counts[kDecodes] = after.decodes - before.decodes;
    r.counts[kHits] = after.hits - before.hits;
    return r;
  }

 private:
  std::string dirFor(const std::string& tag) const {
    return ctx_.tmp_dir + "/fuzz-" + std::to_string(::getpid()) + "-" + tag;
  }

  Context& ctx_;
  std::string boot_dir_;
  uint64_t campaigns_ = 0;
};

// ---- statistics and output ---------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

class JsonOut {
 public:
  void key(const std::string& k) {
    sep();
    std::printf("\"%s\": ", k.c_str());
    first_ = true;
  }
  void open() {
    std::printf("{");
    first_ = true;
  }
  void close() {
    std::printf("}");
    first_ = false;
  }
  void num(const std::string& k, double v) {
    key(k);
    std::printf("%.17g", std::isfinite(v) ? v : 0.0);
    first_ = false;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    std::printf("%s", quote(v).c_str());
    first_ = false;
  }
  void strings(const std::string& k, const std::vector<std::string>& vs) {
    key(k);
    std::printf("[");
    for (size_t i = 0; i < vs.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "", quote(vs[i]).c_str());
    }
    std::printf("]");
    first_ = false;
  }
  /// {"value": v, "unit": u, ...extra}
  void metric(const std::string& k, double v, const char* unit,
              const std::vector<double>* samples = nullptr) {
    key(k);
    open();
    num("value", v);
    str("unit", unit);
    if (samples != nullptr) {
      num("p25", quantile(*samples, 0.25));
      num("p75", quantile(*samples, 0.75));
      num("samples", static_cast<double>(samples->size()));
    }
    close();
  }

 private:
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') {
        q += '\\';
      }
      q += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    return q + "\"";
  }
  void sep() {
    if (!first_) {
      std::printf(", ");
    }
  }
  bool first_ = true;
};

/// The timed rounds of one phase.
struct Phase {
  /// Repeats kept per run slot. Past this, every other kept repeat is
  /// dropped and only every `stride`-th round is kept from then on, so
  /// the memory the benchmark holds (and with it the peak RSS it
  /// reports) stays bounded however fast the rounds go.
  static constexpr size_t kMaxRepeats = 1024;

  std::vector<Slot> shape;  ///< the run slots of a round (first round)
  std::vector<std::vector<double>> slot_ns;  ///< kept repeats of each slot
  size_t stride = 1;
  std::vector<double> round_rates;  ///< runs per second, one per round
  std::vector<double> round_s;      ///< wall time, one per round
  std::vector<double> host_speeds;  ///< calibration chunks of the phase
  Counts counts{};  ///< of the first round; every round must match
  size_t rounds = 0;
  uint64_t runs = 0;
  double wall_s = 0;

  /// Host speed during the phase, 1 = the reference host.
  [[nodiscard]] double hostSpeed() const { return quantile(host_speeds, 0.5); }

  void add(const RoundResult& r, double wall) {
    if (rounds == 0) {
      counts = r.counts;
      shape = r.slots;
      slot_ns.resize(shape.size());
    }
    const bool keep = rounds++ % stride == 0;
    round_s.push_back(wall);
    int64_t ns = 0;
    uint64_t round_runs = 0;
    for (size_t i = 0; i < r.slots.size() && i < shape.size(); ++i) {
      const Slot& slot = r.slots[i];
      ns += slot.ns;
      round_runs += slot.runs;
      if (keep) {
        slot_ns[i].push_back(static_cast<double>(slot.ns));
      }
    }
    if (keep && !slot_ns.empty() && slot_ns[0].size() >= kMaxRepeats) {
      for (std::vector<double>& v : slot_ns) {
        for (size_t j = 0; 2 * j < v.size(); ++j) {
          v[j] = v[2 * j];
        }
        v.resize((v.size() + 1) / 2);
      }
      stride *= 2;
    }
    runs += round_runs;
    round_rates.push_back(static_cast<double>(round_runs) /
                          (static_cast<double>(ns) * 1e-9));
  }

  /// Runs per second of a round rebuilt from the median repeat of each
  /// run slot (restricted to detail level `level` when >= 0). With
  /// `instrs`, source MIPS instead. Slot by slot, a burst of host
  /// contention that slows some runs of a round moves the estimate less
  /// than it moves that round's total.
  [[nodiscard]] double slotRate(int level = -1, bool instrs = false) const {
    double ns = 0;
    double n = 0;
    for (size_t i = 0; i < shape.size(); ++i) {
      if (level >= 0 && shape[i].level != level) {
        continue;
      }
      ns += quantile(slot_ns[i], 0.5);
      n += static_cast<double>(instrs ? shape[i].instrs : shape[i].runs);
    }
    return ratio(n, ns * (instrs ? 1e-3 : 1e-9));
  }

  /// Every kept seek latency, in ms.
  [[nodiscard]] std::vector<double> seekMs() const {
    std::vector<double> ms;
    for (size_t i = 0; i < shape.size(); ++i) {
      if (shape[i].seek) {
        for (const double ns : slot_ns[i]) {
          ms.push_back(ns * 1e-6);
        }
      }
    }
    return ms;
  }
};

/// Peak resident set of this process image in MB. VmHWM starts afresh
/// at exec, unlike getrusage's ru_maxrss, which keeps the launching
/// process's peak.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

int benchMain(int argc, char** argv) {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir;
  std::string tmp_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = static_cast<uint32_t>(std::stoul(v));
    } else if (a == "--seconds") {
      seconds = std::stod(v);
    } else if (a == "--trace") {
      trace = std::stoi(v);
    } else if (a == "--trace-dir") {
      trace_dir = v;
    } else if (a == "--tmp") {
      tmp_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }

  Context ctx;
  ctx.seed = seed;
  ctx.tmp_dir = tmp_dir;

  // One workload object per set-up, so every set-up starts from nothing;
  // the last one runs the timed rounds.
  std::function<RoundResult()> round;
  std::function<void()> make;
  std::unique_ptr<PaperWorkload> paper;
  std::unique_ptr<SocWorkload> soc;
  std::unique_ptr<FuzzWorkload> fuzz;
  if (workload == "paper_xlat" || workload == "paper_iss") {
    const bool translated = workload == "paper_xlat";
    make = [&, translated] {
      paper = std::make_unique<PaperWorkload>(ctx, translated);
      paper->setup();
    };
    round = [&] { return paper->round(); };
  } else if (workload == "soc_multicore") {
    make = [&] {
      soc = std::make_unique<SocWorkload>(ctx);
      soc->setup();
    };
    round = [&] { return soc->round(); };
  } else if (workload == "fuzz_campaign") {
    make = [&] {
      fuzz = std::make_unique<FuzzWorkload>(ctx);
      fuzz->setup();
    };
    round = [&] { return fuzz->round(); };
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' "
                 "(paper_xlat|paper_iss|soc_multicore|fuzz_campaign)\n",
                 workload.c_str());
    return 2;
  }

  std::optional<Counts> reference;
  const auto checkCounts = [&](const Counts& c, const char* where) {
    if (!reference) {
      reference = c;
      return;
    }
    for (size_t i = 0; i < kCountFields; ++i) {
      if (c[i] != (*reference)[i]) {
        ctx.fail(std::string(where) + ": count " + kCountNames[i] + " " +
                 std::to_string(c[i]) + " != " +
                 std::to_string((*reference)[i]) + " of the first round");
      }
    }
  };

  // ---- set-up ------------------------------------------------------------------
  // Set-up runs once before the rounds and again between rounds of the
  // untraced phase while it has taken under kSetupShare of the elapsed
  // time, so its repeats meet the same host conditions as the rounds.
  std::vector<double> setup_s;
  int64_t setup_ns = 0;
  const auto setUp = [&] {
    const bool calibrating = ctx.calibrating;
    ctx.calibrating = false;
    const int64_t t0 = nowNs();
    make();
    const RoundResult warm = round();  // untimed warm-up round
    const int64_t ns = nowNs() - t0;
    ctx.calibrating = calibrating;
    setup_ns += ns;
    setup_s.push_back(static_cast<double>(ns) * 1e-9);
    checkCounts(warm.counts, "warm-up round");
  };
  setUp();

  // ---- timed phases ----------------------------------------------------------
  const auto runPhase = [&](double budget_s, bool traced_phase) {
    Phase ph;
    if (traced_phase) {
      ctx.tracer.enable(/*keep_rounds=*/5);
    }
    const int64_t t0 = nowNs();
    const size_t first_chunk = ctx.calib_speeds.size();
    if (!ctx.calibrating) {
      ctx.calibrating = true;
      ctx.calib_since = t0;
    }
    while (ph.rounds < 3 ||
           static_cast<double>(nowNs() - t0) * 1e-9 < budget_s) {
      if (!traced_phase && static_cast<double>(setup_ns) <
                               kSetupShare * static_cast<double>(nowNs() - t0)) {
        setUp();
      }
      const int64_t r0 = nowNs();
      RoundResult r;
      {
        Span s(ctx.tracer, kRound);
        r = round();
      }
      checkCounts(r.counts, traced_phase ? "traced round" : "round");
      ph.add(r, static_cast<double>(nowNs() - r0) * 1e-9);
    }
    ph.wall_s = static_cast<double>(nowNs() - t0) * 1e-9;
    ph.host_speeds.assign(ctx.calib_speeds.begin() + first_chunk,
                          ctx.calib_speeds.end());
    ctx.tracer.disable();
    return ph;
  };

  const Phase main_phase = runPhase(trace != 0 ? seconds / 2 : seconds, false);
  while (setup_s.size() < kMinSetups) {
    setUp();
  }
  std::optional<Phase> traced_phase;
  if (trace != 0) {
    traced_phase = runPhase(seconds / 2, true);
  }

  const double peak_rss_mb = peakRssMb();

  // ---- traced-run report and self-checks --------------------------------------
  std::map<std::string, std::pair<double, const char*>> layers;
  std::vector<std::pair<std::string, double>> self_table;
  if (traced_phase) {
    const Tracer& tr = ctx.tracer;
    const Phase& ph = *traced_phase;
    double self_sum = 0;
    for (size_t l = 0; l < kLayerCount; ++l) {
      const double s = tr.selfSeconds(static_cast<Layer>(l));
      self_sum += s;
      self_table.emplace_back(layerName(static_cast<Layer>(l)), s);
    }
    ctx.check(std::fabs(self_sum - ph.wall_s) <= 0.02 * ph.wall_s,
              "layer self times sum to " + std::to_string(self_sum) +
                  " s, traced wall time is " + std::to_string(ph.wall_s) +
                  " s");
    const auto pct = [&](Layer l) {
      return 100.0 * ratio(tr.selfSeconds(l), ph.wall_s);
    };
    const auto share = [&](const char* name, Layer l) {
      layers[name] = {pct(l), "%"};
    };
    share("core.acquire_pct", kAcquire);
    share("xlat.translate_pct", kTranslate);
    share("platform.load_pct", kLoad);
    share("platform.run_pct", kPlatformRun);
    share("platform.board_ctor_pct", kBoardCtor);
    share("platform.board_run_pct", kBoardRun);
    share("snap.save_pct", kSave);
    share("snap.restore_pct", kRestore);
    share("snap.digest_pct", kDigest);
    share("fuzz.farm_run_pct", kFarmRun);
    share("bench.teardown_pct", kTeardown);
    share("bench.check_pct", kCheck);
    share("bench.calibrate_pct", kCalibrate);
    layers["bench.other_pct"] = {pct(kRound) + pct(kRun), "%"};
    // Both halves at the reference host's speed, so a change in host
    // speed between them does not read as tracing overhead.
    const double untraced_round =
        quantile(main_phase.round_s, 0.5) * main_phase.hostSpeed();
    const double traced_round = quantile(ph.round_s, 0.5) * ph.hostSpeed();
    layers["trace.overhead_pct"] = {
        100.0 * ratio(traced_round - untraced_round, untraced_round), "%"};

    // Totals over the traced phase: every round repeats the same counts.
    const Counts& c = ph.counts;
    const double n = static_cast<double>(ph.rounds);
    const auto total = [&](Count k) { return static_cast<double>(c[k]) * n; };
    const auto per = [&](Count k, Layer l, double scale) {
      return ratio(total(k), tr.selfSeconds(l)) / scale;
    };
    layers["vliw.mcycles_per_s"] = {per(kVliwCycles, kPlatformRun, 1e6),
                                    "Mcycle/s"};
    layers["iss.mips"] = {per(kIssInstrs, kBoardRun, 1e6), "MIPS"};
    layers["sim.mevents_per_s"] = {per(kSimEvents, kBoardRun, 1e6),
                                   "Mevent/s"};
    layers["xlat.kinstr_per_s"] = {per(kXlatSourceInstrs, kTranslate, 1e3),
                                   "kinstr/s"};
    layers["core.acquires_per_s"] = {
        ratio(static_cast<double>(tr.calls(kAcquire)),
              tr.selfSeconds(kAcquire)),
        "1/s"};
    layers["snap.save_mb_per_s"] = {per(kSnapBytesSaved, kSave, 1e6), "MB/s"};
    layers["snap.restore_mb_per_s"] = {per(kSnapBytesRestored, kRestore, 1e6),
                                       "MB/s"};
    layers["fuzz.execs_per_s"] = {per(kFuzzExecs, kFarmRun, 1.0), "1/s"};

    for (const Count k :
         {kDecodes, kHits, kXlatBlocks, kXlatPackets, kXlatOps, kXlatBytes,
          kVliwCycles, kVliwPackets, kVliwOps, kVliwStalls, kVliwNops,
          kSyncGenerated, kSyncStalls, kSyncCorrection, kIssInstrs,
          kIssCycles, kIssBlocks, kSimEvents, kSocCycles, kBusReads,
          kBusWrites, kSnapBytesSaved, kSnapSaves, kSnapRestores,
          kFuzzCandidates, kFuzzExecs, kFuzzAdds, kFuzzCoverage}) {
      layers[kCountNames[k]] = {
          static_cast<double>(c[k]),
          k == kXlatBytes || k == kSnapBytesSaved ? "B" : "count"};
    }

    const auto frac = [&](Count a, Count b) {
      return ratio(static_cast<double>(c[a]), static_cast<double>(c[b]));
    };
    layers["core.hit_ratio"] = {
        ratio(static_cast<double>(c[kHits]),
              static_cast<double>(c[kHits] + c[kDecodes])),
        "ratio"};
    layers["vliw.ops_per_packet"] = {frac(kVliwOps, kVliwPackets), "ratio"};
    layers["vliw.cpi_static"] = {frac(kPaperCyclesStatic, kPaperInstrsStatic),
                                 "cycle/instr"};
    layers["vliw.cpi_icache"] = {frac(kPaperCyclesICache, kPaperInstrsICache),
                                 "cycle/instr"};
    // Dispatch ratios are over the blocks the block cache dispatched.
    layers["iss.chain_hit_ratio"] = {frac(kIssChainHits, kIssCachedBlocks),
                                     "ratio"};
    layers["iss.trace_dispatch_ratio"] = {
        frac(kIssTraceDispatches, kIssCachedBlocks), "ratio"};
    layers["iss.guard_bail_ratio"] = {
        frac(kIssGuardBails, kIssTraceDispatches), "ratio"};
    layers["fuzz.execs_per_candidate"] = {frac(kFuzzExecs, kFuzzCandidates),
                                          "ratio"};
    layers["fuzz.valid_ratio"] = {
        ratio(static_cast<double>(c[kFuzzCandidates]) -
                  static_cast<double>(c[kFuzzInvalid]),
              static_cast<double>(c[kFuzzCandidates])),
        "ratio"};
    layers["fuzz.admission_ratio"] = {frac(kFuzzAdds, kFuzzCandidates),
                                      "ratio"};
    layers["fuzz.fork_hit_ratio"] = {
        ratio(static_cast<double>(c[kFuzzForkHits]),
              static_cast<double>(c[kFuzzForkHits] + c[kFuzzForkMisses])),
        "ratio"};

    if (!trace_dir.empty()) {
      const std::string stem = trace_dir + "/" + workload + "-seed" +
                               std::to_string(seed);
      ctx.check(tr.writeChromeTrace(stem + ".trace.json"),
                "cannot write " + stem + ".trace.json");
    }
  }

  // ---- the record -------------------------------------------------------------
  uint64_t attempted = main_phase.runs;
  if (traced_phase) {
    attempted += traced_phase->runs;
  }
  JsonOut j;
  j.open();
  j.str("workload", workload);
  j.num("seed", seed);
  j.num("seconds", seconds);
  j.num("trace", trace);
  j.str("compiler", __VERSION__);
  j.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.num("setups", static_cast<double>(setup_s.size()));
  j.num("rounds", static_cast<double>(main_phase.rounds));
  j.num("runs_per_round", static_cast<double>(main_phase.counts[kRuns]));
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(ctx.failed));
  j.strings("failures", ctx.failures);

  // End-to-end timings are stated at the reference host's speed: the
  // raw figure scaled by how fast the calibration kernel ran here. On a
  // shared host that removes most of the drift other tenants cause over
  // minutes; the details keep the raw wall-clock numbers.
  const double host_speed = main_phase.hostSpeed();
  j.key("end_to_end");
  j.open();
  j.metric("setup_s", quantile(setup_s, 0.5) * host_speed, "s");
  j.metric("runs_per_s", main_phase.slotRate() / host_speed, "1/s");
  j.metric("peak_rss_mb", peak_rss_mb, "MB");
  j.close();

  j.key("details");
  j.open();
  j.metric("host_speed", host_speed, "ratio", &main_phase.host_speeds);
  j.metric("setup_s_raw", quantile(setup_s, 0.5), "s", &setup_s);
  j.metric("runs_per_s_raw", main_phase.slotRate(), "1/s");
  j.metric("runs_per_s_round_median", quantile(main_phase.round_rates, 0.5),
           "1/s", &main_phase.round_rates);
  for (int l = 0; l < 4; ++l) {
    const double mips = main_phase.slotRate(l, true);
    if (mips > 0) {
      j.metric(std::string("mips_") + kLevelNames[l], mips, "MIPS");
    }
  }
  const std::vector<double> seek_ms = main_phase.seekMs();
  if (!seek_ms.empty()) {
    j.metric("seek_ms_p50", quantile(seek_ms, 0.5), "ms", &seek_ms);
    j.metric("seek_ms_p95", quantile(seek_ms, 0.95), "ms", &seek_ms);
  }
  j.metric("round_s", quantile(main_phase.round_s, 0.5), "s",
           &main_phase.round_s);
  j.close();

  j.key("counts");
  j.open();
  for (size_t i = 0; i < kCountFields; ++i) {
    j.num(kCountNames[i], static_cast<double>(main_phase.counts[i]));
  }
  j.close();

  if (traced_phase) {
    j.key("per_layer");
    j.open();
    for (const auto& [name, vu] : layers) {
      j.metric(name, vu.first, vu.second);
    }
    j.close();
    j.key("self_s");
    j.open();
    for (const auto& [name, s] : self_table) {
      j.num(name, s);
    }
    j.close();
    j.num("traced_rounds", static_cast<double>(traced_phase->rounds));
    j.num("traced_wall_s", traced_phase->wall_s);
    j.num("untraced_wall_s", main_phase.wall_s);
  }
  j.close();
  std::printf("\n");
  return ctx.failed == 0 ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::benchMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
