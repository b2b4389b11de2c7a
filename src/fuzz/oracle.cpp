#include "fuzz/oracle.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "arch/arch.h"
#include "common/error.h"
#include "core/program_artifact.h"
#include "fi/fi.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "rtlsim/rtlsim.h"
#include "snap/observe.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt::fuzz {

namespace {

/// The validity gate and in-level comparison baseline: icache detail,
/// threaded engine.
constexpr snap::GridPoint kRef{xlat::DetailLevel::kICache, true};

/// VLIW-cycle budget for translated-platform runs.
constexpr uint64_t kMaxVliwCycles = 80'000'000;

/// The configuration every grid board starts from (snap::boardConfigFor
/// adds the detail level and the engine).
platform::BoardConfig gridBase(const SeedCase& c, const OracleOptions& opts) {
  platform::BoardConfig base;
  // Aggressive formation so short fuzz programs exercise traces (the
  // random_program_test idiom); every block lowers at its first dispatch.
  base.iss.trace_threshold = 2;
  base.iss.max_instructions = opts.max_instructions;
  base.quantum = c.quantum;
  return base;
}

snap::Observation runBoard(const arch::ArchDescription& desc,
                           const workloads::BoardImages& images,
                           const SeedCase& c,
                           const platform::BoardConfig& base,
                           const snap::GridPoint& p,
                           core::EdgeCoverage* coverage) {
  platform::ReferenceBoard board(desc, images.ptrs(),
                                 snap::boardConfigFor(p, base));

  fi::Campaign campaign;
  for (const std::string& f : c.faults) {
    campaign.add(fi::parseFaultSpec(f));
  }
  if (!c.faults.empty()) {
    campaign.arm(board);
  }
  if (coverage != nullptr) {
    for (size_t i = 0; i < board.numCores(); ++i) {
      board.core(i).attachEdgeCoverage(coverage);
    }
  }

  board.run();
  return snap::observe(board);
}

bool allHalted(const snap::Observation& o) {
  return std::all_of(o.cores.begin(), o.cores.end(),
                     [](const snap::CoreObservation& core) {
                       return core.stop == iss::StopReason::kHalted;
                     });
}

}  // namespace

OracleResult runOracle(const SeedCase& c, const OracleOptions& opts,
                       core::EdgeCoverage* coverage) {
  OracleResult result;
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();

  std::optional<workloads::BoardImages> images;
  try {
    images.emplace(workloads::BoardImages::assembled(c.programs));
  } catch (const Error& e) {
    result.mismatch = std::string("assembly failed: ") + e.what();
    return result;  // invalid, not a finding
  }

  // ---- reference configuration: validity gate + coverage feedback ----
  const platform::BoardConfig base = gridBase(c, opts);
  // Pin each image's artifact until the candidate is done, under the key
  // the boards use: the grid builds and destroys one board after
  // another, and the standalone ISS and the translations acquire the
  // same key, so the candidate pays one decode per image. Pinning
  // decodes, and text that does not decode makes the candidate invalid,
  // so it sits inside the reference run's try.
  std::vector<std::shared_ptr<const core::ProgramArtifact>> pinned;
  snap::Observation ref;
  try {
    pinned = core::ProgramArtifactCache::instance().pin(
        desc, images->ptrs(), base.iss.extra_leaders);
    ref = runBoard(desc, *images, c, base, kRef, coverage);
    ++result.executions;
  } catch (const Error& e) {
    result.mismatch = std::string("reference run failed: ") + e.what();
    return result;  // invalid
  }
  if (!allHalted(ref)) {
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
    // ---- the board grid: detail x engine ------------------------------
    for (const xlat::DetailLevel level : xlat::kDetailLevels) {
      snap::Observation leader;
      bool have_leader = false;
      if (level == kRef.level) {
        leader = ref;
        have_leader = true;
      }
      for (const snap::GridPoint& p : snap::engineGrid(level)) {
        if (level == kRef.level && p.threaded == kRef.threaded) {
          continue;  // already ran as the reference
        }
        snap::Observation got =
            runBoard(desc, *images, c, base, p, nullptr);
        ++result.executions;
        if (!have_leader) {
          leader = std::move(got);
          have_leader = true;
          continue;
        }
        const std::string diff = snap::firstMismatch(leader, got);
        if (!diff.empty()) {
          std::ostringstream out;
          out << "level=" << xlat::detailLevelName(level)
              << " engine=" << snap::gridPointName(p) << ": " << diff;
          result.mismatch = out.str();
          return result;
        }
      }
      if (cross_level_ok && level != kRef.level) {
        const std::string diff = snap::firstFunctionalMismatch(ref, leader);
        if (!diff.empty()) {
          result.mismatch = std::string("cross-level level=") +
                            xlat::detailLevelName(level) + ": " + diff;
          return result;
        }
      }
    }

    // ---- three-way extras: rtlsim + translated platform --------------
    // Only single-program cases without shared traffic or faults: the
    // RT model has no bus and the translated platform replays no fi::
    // campaigns.
    if (c.programs.size() == 1 && c.faults.empty() &&
        !c.hasSharedTraffic()) {
      const elf::Object& obj = images->image(0);
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

      for (const xlat::DetailLevel level : xlat::kDetailLevels) {
        xlat::TranslateOptions xopts;
        xopts.level = level;
        xopts.debug_skew_static_cycles = opts.xlat_skew;
        const xlat::TranslationResult t = xlat::translate(desc, obj, xopts);
        platform::PlatformConfig pcfg;
        pcfg.max_cycles = kMaxVliwCycles;
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
