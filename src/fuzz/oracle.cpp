#include "fuzz/oracle.h"

#include <array>
#include <memory>
#include <sstream>

#include "arch/arch.h"
#include "common/error.h"
#include "fi/fi.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "rtlsim/rtlsim.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"
#include "xlat/translator.h"

namespace cabt::fuzz {

namespace {

const xlat::DetailLevel kLevels[] = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};

/// The ISS engine axis of the grid, as IssConfig::use_block_cache:
/// the step() reference (false) and the threaded engine (true).
constexpr bool kEngines[] = {false, true};

const char* engineName(bool threaded) { return threaded ? "threaded" : "step"; }

/// The validity gate and in-level comparison baseline: icache detail,
/// threaded engine, sequential kernel.
constexpr xlat::DetailLevel kRefLevel = xlat::DetailLevel::kICache;
constexpr bool kRefThreaded = true;

uint64_t fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string forkKey(const SeedCase& c, xlat::DetailLevel level,
                    bool threaded, bool par) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& p : c.programs) {
    h = fnv1a(h, p.data(), p.size());
    h = fnv1a(h, "|", 1);
  }
  std::ostringstream key;
  key << std::hex << h << std::dec << "-q" << c.quantum << "-f"
      << c.fork_cycle << "-l" << static_cast<int>(level) << "-e"
      << (threaded ? 1 : 0) << "-p" << (par ? 1 : 0);
  return key.str();
}

/// Everything one grid run exposes for comparison.
struct BoardObs {
  iss::StopReason stop = iss::StopReason::kRunning;
  uint64_t digest = 0;
  uint64_t bus_cycle = 0;
  std::vector<soc::Transaction> log;
  std::vector<iss::IssStats> stats;
  std::vector<std::array<uint32_t, 32>> regs;
  std::vector<uint32_t> pc;
  std::vector<std::vector<uint64_t>> irq_times;
};

BoardObs runBoard(const arch::ArchDescription& desc,
                  const std::vector<const elf::Object*>& ptrs,
                  const SeedCase& c, const OracleOptions& opts,
                  xlat::DetailLevel level, bool threaded, bool par,
                  SnapshotCache* cache, core::EdgeCoverage* coverage) {
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(level);
  cfg.iss.use_block_cache = threaded;
  // Aggressive formation so short fuzz programs exercise traces and
  // threaded lowering (the random_program_test idiom).
  cfg.iss.trace_threshold = 2;
  cfg.iss.threaded_threshold = 2;
  cfg.iss.max_instructions = opts.max_instructions;
  cfg.quantum = c.quantum;
  cfg.parallel.enabled = par;
  cfg.parallel.workers = 2;
  platform::ReferenceBoard board(desc, ptrs, cfg);

  // Snapshot fork: warm to the fork cycle once per (programs, config),
  // restore everywhere else. Faults arm at the fork in both paths, so
  // warm and cold runs are bit-identical (snap:: contract; pinned by
  // tests/fuzz_test.cpp SnapshotForkMatchesColdRun).
  if (c.fork_cycle > 0) {
    const std::string key = forkKey(c, level, threaded, par);
    const std::vector<uint8_t>* snap_data =
        cache != nullptr ? cache->find(key) : nullptr;
    if (snap_data != nullptr) {
      snap::restore(board, *snap_data);
      cache->countHit();
    } else {
      board.runTo(c.fork_cycle);
      if (cache != nullptr) {
        cache->put(key, snap::save(board));
        cache->countMiss();
      }
    }
  }

  fi::Campaign campaign;
  for (const std::string& f : c.faults) {
    campaign.add(fi::parseFaultSpec(f));
  }
  if (!c.faults.empty()) {
    campaign.arm(board);
  }
  if (coverage != nullptr) {
    for (size_t i = 0; i < board.numCores(); ++i) {
      board.attachEdgeCoverage(i, coverage);
    }
  }

  BoardObs o;
  o.stop = board.run();
  o.digest = snap::digest(board);
  o.bus_cycle = board.board().bus.socCycle();
  o.log = board.board().bus.log();
  for (size_t i = 0; i < board.numCores(); ++i) {
    o.stats.push_back(board.core(i).stats());
    std::array<uint32_t, 32> regs{};
    for (int j = 0; j < 16; ++j) {
      regs[static_cast<size_t>(j)] = board.core(i).d(j);
      regs[static_cast<size_t>(j) + 16] = board.core(i).a(j);
    }
    o.regs.push_back(regs);
    o.pc.push_back(board.core(i).pc());
    o.irq_times.push_back(board.intc(i).deliveryTimes());
  }
  return o;
}

/// Bit-exact in-level comparison; returns the first difference or "".
std::string diffObs(const BoardObs& want, const BoardObs& got) {
  std::ostringstream out;
  if (got.stop != want.stop) {
    out << "stop reason " << static_cast<int>(got.stop) << " != "
        << static_cast<int>(want.stop);
    return out.str();
  }
  if (got.digest != want.digest) {
    out << "digest 0x" << std::hex << got.digest << " != 0x" << want.digest;
    return out.str();
  }
  if (got.bus_cycle != want.bus_cycle) {
    out << "bus cycle " << got.bus_cycle << " != " << want.bus_cycle;
    return out.str();
  }
  if (got.log.size() != want.log.size()) {
    out << "bus log length " << got.log.size() << " != " << want.log.size();
    return out.str();
  }
  for (size_t i = 0; i < want.log.size(); ++i) {
    const soc::Transaction& a = want.log[i];
    const soc::Transaction& b = got.log[i];
    if (a.soc_cycle != b.soc_cycle || a.addr != b.addr ||
        a.value != b.value || a.size != b.size || a.is_write != b.is_write) {
      out << "bus txn " << i << " differs (cycle " << b.soc_cycle << "/"
          << a.soc_cycle << " addr 0x" << std::hex << b.addr << "/0x"
          << a.addr << ")";
      return out.str();
    }
  }
  for (size_t i = 0; i < want.stats.size(); ++i) {
    const iss::IssStats& a = want.stats[i];
    const iss::IssStats& b = got.stats[i];
    if (b.instructions != a.instructions || b.cycles != a.cycles ||
        b.pipeline_cycles != a.pipeline_cycles ||
        b.branch_extra != a.branch_extra ||
        b.cache_penalty != a.cache_penalty || b.blocks != a.blocks ||
        b.io_reads != a.io_reads || b.io_writes != a.io_writes ||
        b.irqs_taken != a.irqs_taken) {
      out << "core " << i << " stats differ (instr " << b.instructions
          << "/" << a.instructions << " cycles " << b.cycles << "/"
          << a.cycles << ")";
      return out.str();
    }
    if (got.regs[i] != want.regs[i]) {
      out << "core " << i << " registers differ";
      return out.str();
    }
    if (got.pc[i] != want.pc[i]) {
      out << "core " << i << " pc 0x" << std::hex << got.pc[i] << " != 0x"
          << want.pc[i];
      return out.str();
    }
    if (got.irq_times[i] != want.irq_times[i]) {
      out << "core " << i << " irq delivery timestamps differ";
      return out.str();
    }
  }
  return "";
}

/// Functional (timing-independent) comparison across detail levels.
std::string diffFunctional(const BoardObs& want, const BoardObs& got) {
  std::ostringstream out;
  for (size_t i = 0; i < want.stats.size(); ++i) {
    if (got.stats[i].instructions != want.stats[i].instructions) {
      out << "core " << i << " instructions "
          << got.stats[i].instructions << " != "
          << want.stats[i].instructions;
      return out.str();
    }
    if (got.stats[i].io_reads != want.stats[i].io_reads ||
        got.stats[i].io_writes != want.stats[i].io_writes) {
      out << "core " << i << " io counts differ";
      return out.str();
    }
    if (got.regs[i] != want.regs[i]) {
      out << "core " << i << " registers differ";
      return out.str();
    }
    if (got.pc[i] != want.pc[i]) {
      out << "core " << i << " pc differs";
      return out.str();
    }
  }
  return "";
}

}  // namespace

const std::vector<uint8_t>* SnapshotCache::find(
    const std::string& key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void SnapshotCache::put(const std::string& key, std::vector<uint8_t> data) {
  if (map_.count(key) != 0) {
    return;
  }
  while (map_.size() >= capacity_ && !order_.empty()) {
    map_.erase(order_.front());
    order_.pop_front();
  }
  order_.push_back(key);
  map_.emplace(key, std::move(data));
}

OracleResult runOracle(const SeedCase& c, const OracleOptions& opts,
                       SnapshotCache* cache, core::EdgeCoverage* coverage) {
  OracleResult result;
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();

  std::vector<elf::Object> images;
  std::vector<const elf::Object*> ptrs;
  try {
    for (const std::string& p : c.programs) {
      images.push_back(trc::assemble(p));
    }
  } catch (const Error& e) {
    result.mismatch = std::string("assembly failed: ") + e.what();
    return result;  // invalid, not a finding
  }
  for (const elf::Object& obj : images) {
    ptrs.push_back(&obj);
  }

  // ---- reference configuration: validity gate + coverage feedback ----
  BoardObs ref;
  try {
    ref = runBoard(desc, ptrs, c, opts, kRefLevel, kRefThreaded,
                   /*par=*/false, cache, coverage);
    ++result.executions;
  } catch (const Error& e) {
    result.mismatch = std::string("reference run failed: ") + e.what();
    return result;  // invalid
  }
  if (ref.stop != iss::StopReason::kHalted) {
    result.mismatch = "reference run did not halt (instruction budget)";
    return result;  // invalid: mutant spins, discard
  }
  result.valid = true;
  result.ref_cycles = ref.bus_cycle;

  // Cycle-keyed faults land at level-dependent program points, and
  // multi-core shared-bus interleavings legitimately shift with the
  // timing model — in both shapes only in-level comparison is sound.
  const bool cross_level_ok =
      c.faults.empty() && (c.programs.size() == 1 || !c.hasSharedTraffic());

  try {
    // ---- the board grid: detail x engine x seq/par -------------------
    for (const xlat::DetailLevel level : kLevels) {
      BoardObs leader;
      bool have_leader = false;
      if (level == kRefLevel) {
        leader = ref;
        have_leader = true;
      }
      for (const bool threaded : kEngines) {
        for (const bool par : {false, true}) {
          if (level == kRefLevel && threaded == kRefThreaded && !par) {
            continue;  // already ran as the reference
          }
          BoardObs got = runBoard(desc, ptrs, c, opts, level, threaded, par,
                                  cache, nullptr);
          ++result.executions;
          if (!have_leader) {
            leader = std::move(got);
            have_leader = true;
            continue;
          }
          const std::string diff = diffObs(leader, got);
          if (!diff.empty()) {
            std::ostringstream out;
            out << "level=" << xlat::detailLevelName(level)
                << " engine=" << engineName(threaded) << " par=" << par << ": "
                << diff;
            result.mismatch = out.str();
            return result;
          }
        }
      }
      if (cross_level_ok && level != kRefLevel) {
        const std::string diff = diffFunctional(ref, leader);
        if (!diff.empty()) {
          result.mismatch = std::string("cross-level level=") +
                            xlat::detailLevelName(level) + ": " + diff;
          return result;
        }
      }
    }

    // ---- three-way extras: rtlsim + translated platform --------------
    // Only single-program cases without shared traffic or faults: the
    // RT model has no bus, the translated platform replays no fi::
    // campaigns, and both replay from reset.
    if (opts.three_way && c.programs.size() == 1 && c.faults.empty() &&
        !c.hasSharedTraffic()) {
      const elf::Object& obj = images.front();
      iss::IssConfig ref_cfg;
      ref_cfg.max_instructions = opts.max_instructions;
      iss::Iss iss_ref(desc, obj, nullptr, ref_cfg);
      ++result.executions;
      if (iss_ref.run() != iss::StopReason::kHalted) {
        result.mismatch = "standalone ISS did not halt";
        return result;
      }

      rtlsim::RtlCore rtl(desc, obj);
      ++result.executions;
      rtl.run(opts.max_instructions * 8);
      if (!rtl.halted()) {
        result.mismatch = "rtlsim did not halt";
        return result;
      }
      if (rtl.stats().cycles != iss_ref.stats().cycles) {
        std::ostringstream out;
        out << "rtlsim cycles " << rtl.stats().cycles << " != ISS "
            << iss_ref.stats().cycles;
        result.mismatch = out.str();
        return result;
      }
      for (int i = 0; i < 16; ++i) {
        if (rtl.d(i) != iss_ref.d(i)) {
          result.mismatch = "rtlsim d" + std::to_string(i) + " differs";
          return result;
        }
      }

      for (const xlat::DetailLevel level : kLevels) {
        xlat::TranslateOptions xopts;
        xopts.level = level;
        xopts.debug_skew_static_cycles = opts.xlat_skew;
        const xlat::TranslationResult t = xlat::translate(desc, obj, xopts);
        platform::PlatformConfig pcfg;
        pcfg.max_cycles = opts.max_vliw_cycles;
        platform::EmulationPlatform plat(desc, t.image, pcfg);
        ++result.executions;
        const platform::RunResult run = plat.run();
        if (run.state != vliw::RunState::kHalted) {
          result.mismatch = std::string("translated platform (") +
                            xlat::detailLevelName(level) +
                            ") did not halt";
          return result;
        }
        const std::string diff =
            platform::compareFinalState(desc, iss_ref, plat, obj);
        if (!diff.empty()) {
          result.mismatch = std::string("translated platform (") +
                            xlat::detailLevelName(level) + "): " + diff;
          return result;
        }
        if (level == xlat::DetailLevel::kICache &&
            run.generated_cycles != iss_ref.stats().cycles) {
          std::ostringstream out;
          out << "translated platform (icache): generated cycles "
              << run.generated_cycles << " != ISS " << iss_ref.stats().cycles;
          result.mismatch = out.str();
          return result;
        }
        if (level == xlat::DetailLevel::kBranchPredict &&
            run.generated_cycles + iss_ref.stats().cache_penalty !=
                iss_ref.stats().cycles) {
          std::ostringstream out;
          out << "translated platform (branch-predict): generated cycles "
              << run.generated_cycles << " + cache penalty "
              << iss_ref.stats().cache_penalty << " != ISS "
              << iss_ref.stats().cycles;
          result.mismatch = out.str();
          return result;
        }
      }
    }
  } catch (const Error& e) {
    // An engine exception on a candidate whose reference run was clean
    // is itself a divergence worth reporting.
    result.mismatch = std::string("engine exception: ") + e.what();
    return result;
  }

  result.ok = true;
  return result;
}

}  // namespace cabt::fuzz
