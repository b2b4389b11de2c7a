// Checkpoint/replay driver for the stock scenario boards: computes the
// rolling state digests scripts/golden_state.py pins in-repo, saves and
// resumes full platform snapshots, and self-checks the save→restore→run
// round trip. selfcheck and recover compare whole board observations
// (snap/observe.h) and, on a MISMATCH, print the first differing field.
//
// Usage:
//   state_tool digest <scenario> [--level=...] [--quantum=N]
//                     [--interval=N] [--dispatch=...]
//   state_tool selfcheck <scenario> [--level=...] [--quantum=N] [--at=N]
//                        [--dispatch=...]
//   state_tool save <scenario> --out=FILE [--at=N] [--level=...]
//   state_tool resume <scenario> --in=FILE [--to=N] [--level=...]
//   state_tool profile <scenario> [--period=N] [--top=N]
//                      [--fold-out=FILE] [...common flags]
//   state_tool inject <scenario> --fault=SPEC [--fault=SPEC ...]
//                     [--interval=N] [--to=N] [...common flags]
//   state_tool recover <scenario> --interval=N --fault=SPEC [...]
//                      [--to=N] [...common flags]
//
// `--dispatch=step|threaded` selects the ISS engine: the step()
// reference or the threaded engine (the default). With selfcheck it
// exercises the cold-restore path of that engine from the CLI — e.g.
// `--dispatch=threaded` restores into a board whose block cache (and
// with it every lowered threaded-code program) starts empty.
//
// Observability (src/obs, DESIGN.md section 11) — every board-running
// command additionally accepts:
//   --trace-out=FILE    write a Chrome trace-event / Perfetto JSON
//                       timeline (open in ui.perfetto.dev)
//   --metrics           print the metrics registry as text on stdout
//   --metrics-out=FILE  write the metrics registry as JSON
//   --cores=N           replicate a single-program scenario onto N cores
//                       (N <= soc::StandardIoMap::kMaxCores, 8)
// `profile` runs the guest sampling profiler: samples the PC every
// --period guest cycles at block boundaries, attributes samples through
// the image's symbol table, prints a per-core top-N table and writes
// flamegraph-foldable lines ("coreN;func count") to --fold-out.
// Observers never perturb architectural state: digests with and without
// any of these flags are identical (tests/obs_test.cpp).
//
// Fault injection & recovery (src/fi, DESIGN.md section 12):
// `inject` arms a fi::Campaign built from repeatable --fault=SPEC
// strings ("kind@cycle:key=value,..."), runs the scenario, and reports
// every fired fault plus the final digest. `recover` performs a clean
// reference run first, then replays with the faults, divergence
// detection against the reference digest trail, and auto-recovery
// through the snapshot ring — exiting 0 only when the recovered run
// converges on the clean run. `--fi-armed` (any board-running
// command) arms a campaign of never-due faults, the non-perturbation
// probe scripts/golden_state.py --check uses: output must be identical
// to an FI-off run.
//
// Scenarios: irq_ticks (1 core), mc_pair (producer + consumer),
// mc_worker (solo), mc_quad (pair + two workers). `digest` prints one
// `trail <cycle> <digest>` line per checkpoint interval (when
// --interval is given) and a final machine-parsable summary line.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "fi/fi.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "snap/recorder.h"
#include "snap/snapshot.h"
#include "soc/peripherals.h"
#include "workloads/workloads.h"

namespace {

using namespace cabt;

xlat::DetailLevel parseLevel(const std::string& name) {
  using xlat::DetailLevel;
  if (name == "functional") {
    return DetailLevel::kFunctional;
  }
  if (name == "static") {
    return DetailLevel::kStatic;
  }
  if (name == "branch") {
    return DetailLevel::kBranchPredict;
  }
  if (name == "cache") {
    return DetailLevel::kICache;
  }
  throw Error("unknown detail level '" + name +
              "' (functional|static|branch|cache)");
}

/// IssConfig::use_block_cache for a --dispatch engine name.
bool parseDispatch(const std::string& name) {
  if (name == "step") {
    return false;
  }
  if (name == "threaded") {
    return true;
  }
  throw Error("unknown dispatch engine '" + name + "' (step|threaded)");
}

/// A stock scenario board: the images plus everything needed to build
/// identically configured boards repeatedly (cold restore targets).
struct Scenario {
  workloads::BoardImages images;
  platform::BoardConfig cfg;
  arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();

  std::unique_ptr<platform::ReferenceBoard> makeBoard() const {
    return std::make_unique<platform::ReferenceBoard>(desc, images.ptrs(),
                                                      cfg);
  }
};

/// The scenario's images; `cores` != 0 replicates a single-program
/// scenario onto that many cores.
workloads::BoardImages scenarioImages(const std::string& name,
                                      size_t cores) {
  soc::checkCoreCount(cores, "--cores");
  if (name == "irq_ticks" || name == "mc_worker") {
    return workloads::BoardImages::named(
        std::vector<std::string>(cores == 0 ? 1 : cores, name));
  }
  if (name == "mc_pair" || name == "mc_quad") {
    const size_t n = name == "mc_pair" ? 2 : 4;
    CABT_CHECK(cores == 0 || cores == n,
               "--cores only replicates single-program scenarios; '"
                   << name << "' already has " << n);
    return workloads::BoardImages::family(n);
  }
  throw Error("unknown scenario '" + name +
              "' (irq_ticks|mc_pair|mc_worker|mc_quad)");
}

Scenario makeScenario(const std::string& name, xlat::DetailLevel level,
                      sim::Cycle quantum, const std::string& dispatch,
                      size_t cores) {
  Scenario s{scenarioImages(name, cores), {}};
  s.cfg.iss = platform::issConfigFor(level);
  if (!dispatch.empty()) {
    s.cfg.iss.use_block_cache = parseDispatch(dispatch);
  }
  s.cfg.iss.extra_leaders = s.images.extraLeaders();
  s.cfg.quantum = quantum;
  return s;
}

/// Common observability plumbing for the board-running commands.
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
  bool metrics_text = false;

  [[nodiscard]] bool traceWanted() const { return !trace_out.empty(); }

  /// After the run: export the timeline and/or the metrics registry
  /// (plus the recorder's and the campaign's counters when there are
  /// any).
  void finish(const platform::ReferenceBoard& board,
              const obs::TraceSink& sink,
              const snap::Recorder* recorder = nullptr,
              const fi::Campaign* camp = nullptr) const {
    if (traceWanted()) {
      std::ofstream out(trace_out);
      CABT_CHECK(out.good(), "cannot open '" << trace_out << "'");
      sink.writeJson(out);
      std::printf("trace %s events=%zu dropped=%llu\n", trace_out.c_str(),
                  sink.numEvents(),
                  static_cast<unsigned long long>(sink.droppedEvents()));
    }
    if (metrics_text || !metrics_out.empty()) {
      obs::MetricsRegistry reg;
      board.publishMetrics(reg);
      if (recorder != nullptr) {
        recorder->publishMetrics(reg);
      }
      if (camp != nullptr) {
        camp->publishMetrics(reg);
      }
      if (metrics_text) {
        std::fputs(reg.toText().c_str(), stdout);
      }
      if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        CABT_CHECK(out.good(), "cannot open '" << metrics_out << "'");
        out << reg.toJson();
        std::printf("metrics %s entries=%zu\n", metrics_out.c_str(),
                    reg.size());
      }
    }
  }
};

/// Builds the campaign for this invocation: every --fault=SPEC plus,
/// with --fi-armed, one never-due fault per category — register flip,
/// bus error, device stall (the armed-idle overhead/non-perturbation
/// probe — nothing ever fires).
fi::Campaign buildCampaign(const std::vector<std::string>& fault_specs,
                           bool fi_armed, size_t num_cores) {
  fi::Campaign camp;
  for (const std::string& s : fault_specs) {
    camp.add(fi::parseFaultSpec(s));
  }
  if (fi_armed) {
    for (size_t c = 0; c < num_cores; ++c) {
      fi::FaultSpec reg;
      reg.kind = fi::FaultKind::kDataRegFlip;
      reg.cycle = fi::CoreInjector::kNever;
      reg.core = c;
      reg.index = 15;
      reg.mask = 1;
      camp.add(reg);
    }
    fi::FaultSpec bus;  // window armed from cycle kNever: never active
    bus.kind = fi::FaultKind::kBusError;
    bus.cycle = fi::CoreInjector::kNever;
    bus.addr = 0xf0000300u;
    camp.add(bus);
    fi::FaultSpec stall;  // likewise a window that never opens
    stall.kind = fi::FaultKind::kDeviceStall;
    stall.cycle = fi::CoreInjector::kNever;
    stall.device = "scratch";
    camp.add(stall);
  }
  return camp;
}

const char* coreFaultKindName(fi::CoreFaultKind kind) {
  switch (kind) {
    case fi::CoreFaultKind::kDataReg:
      return "dreg";
    case fi::CoreFaultKind::kAddrReg:
      return "areg";
    case fi::CoreFaultKind::kPc:
      return "pc";
    default:
      return "mem";
  }
}

void printFired(const fi::Campaign& camp, size_t num_cores) {
  for (size_t core = 0; core < num_cores; ++core) {
    for (const fi::FiredFault& f : camp.fired(core)) {
      std::printf(
          "fired core=%zu kind=%s at=%llu pc=0x%08x before=0x%08x "
          "after=0x%08x\n",
          core, coreFaultKindName(f.fault.kind),
          static_cast<unsigned long long>(f.at), f.pc, f.before, f.after);
    }
  }
}

/// Names the first differing field under a MISMATCH summary line.
void printMismatch(const std::string& diff) {
  if (!diff.empty()) {
    std::printf("first mismatch: %s\n", diff.c_str());
  }
}

void printSummary(const platform::ReferenceBoard& board) {
  uint64_t instructions = 0;
  for (size_t i = 0; i < board.numCores(); ++i) {
    instructions += board.core(i).stats().instructions;
  }
  std::printf("final bus_cycle=%llu instructions=%llu digest=0x%016llx\n",
              static_cast<unsigned long long>(board.board().bus.socCycle()),
              static_cast<unsigned long long>(instructions),
              static_cast<unsigned long long>(snap::digest(board)));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string command;
    std::string scenario_name;
    xlat::DetailLevel level = xlat::DetailLevel::kICache;
    sim::Cycle quantum = 1024;
    sim::Cycle interval = 0;
    sim::Cycle at = 2000;
    sim::Cycle to = sim::kForever;
    std::string dispatch;
    std::string in_path;
    std::string out_path;
    size_t cores = 0;
    uint64_t period = 64;
    size_t top_n = 10;
    std::string fold_out;
    std::vector<std::string> fault_specs;
    bool fi_armed = false;
    ObsOptions obs_opts;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--level=", 0) == 0) {
        level = parseLevel(arg.substr(8));
      } else if (arg.rfind("--quantum=", 0) == 0) {
        quantum = parseUnsigned(arg.substr(10), "--quantum");
      } else if (arg.rfind("--interval=", 0) == 0) {
        interval = parseUnsigned(arg.substr(11), "--interval");
      } else if (arg.rfind("--at=", 0) == 0) {
        at = parseUnsigned(arg.substr(5), "--at");
      } else if (arg.rfind("--to=", 0) == 0) {
        to = parseUnsigned(arg.substr(5), "--to");
      } else if (arg.rfind("--dispatch=", 0) == 0) {
        dispatch = arg.substr(11);
      } else if (arg.rfind("--in=", 0) == 0) {
        in_path = arg.substr(5);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--cores=", 0) == 0) {
        cores = parseUnsigned(arg.substr(8), "--cores");
      } else if (arg.rfind("--period=", 0) == 0) {
        period = parseUnsigned(arg.substr(9), "--period");
      } else if (arg.rfind("--top=", 0) == 0) {
        top_n = parseUnsigned(arg.substr(6), "--top");
      } else if (arg.rfind("--fold-out=", 0) == 0) {
        fold_out = arg.substr(11);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        obs_opts.trace_out = arg.substr(12);
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        obs_opts.metrics_out = arg.substr(14);
      } else if (arg.rfind("--fault=", 0) == 0) {
        fault_specs.push_back(arg.substr(8));
      } else if (arg == "--fi-armed") {
        fi_armed = true;
      } else if (arg == "--metrics") {
        obs_opts.metrics_text = true;
      } else if (!arg.empty() && arg[0] != '-') {
        if (command.empty()) {
          command = arg;
        } else if (scenario_name.empty()) {
          scenario_name = arg;
        } else {
          throw Error("unexpected argument '" + arg + "'");
        }
      } else {
        throw Error("unknown option '" + arg + "'");
      }
    }
    if (command.empty() || scenario_name.empty()) {
      std::fprintf(stderr,
                   "usage: %s digest|selfcheck|save|resume|profile|"
                   "inject|recover <scenario> "
                   "[--level=functional|static|branch|cache] [--quantum=N] "
                   "[--interval=N] [--at=N] [--to=N] [--in=F] [--out=F] "
                   "[--cores=N] "
                   "[--dispatch=step|threaded] "
                   "[--fault=SPEC]... [--fi-armed] "
                   "[--trace-out=F] [--metrics] [--metrics-out=F] "
                   "[--period=N] [--top=N] [--fold-out=F]\n",
                   argv[0]);
      return 2;
    }

    const Scenario scenario =
        makeScenario(scenario_name, level, quantum, dispatch, cores);

    if (command == "digest") {
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      fi::Campaign camp =
          buildCampaign(fault_specs, fi_armed, board->numCores());
      if (camp.scheduled() != 0) {
        camp.arm(*board);
      }
      std::optional<snap::Recorder> rec;
      if (interval != 0) {
        rec.emplace(*board, interval, 1);
        rec->runTo(sim::kForever);
        for (const auto& [cycle, digest] : rec->digestTrail()) {
          std::printf("trail %llu 0x%016llx\n",
                      static_cast<unsigned long long>(cycle),
                      static_cast<unsigned long long>(digest));
        }
      } else {
        board->run();
      }
      printSummary(*board);
      obs_opts.finish(*board, sink, rec ? &*rec : nullptr,
                      camp.scheduled() != 0 ? &camp : nullptr);
      return 0;
    }

    if (command == "inject") {
      CABT_CHECK(!fault_specs.empty() || fi_armed,
                 "inject needs at least one --fault=SPEC (or --fi-armed)");
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      fi::Campaign camp =
          buildCampaign(fault_specs, fi_armed, board->numCores());
      camp.arm(*board);
      std::optional<snap::Recorder> rec;
      if (interval != 0) {
        rec.emplace(*board, interval, 4);
        rec->runTo(to);
      } else {
        board->runTo(to);
      }
      printFired(camp, board->numCores());
      std::printf("fi scheduled=%zu fired=%llu\n", camp.scheduled(),
                  static_cast<unsigned long long>(camp.firedCount()));
      if (obs_opts.traceWanted()) {
        camp.emitTrace(sink);
      }
      printSummary(*board);
      obs_opts.finish(*board, sink, rec ? &*rec : nullptr, &camp);
      return 0;
    }

    if (command == "recover") {
      CABT_CHECK(interval != 0,
                 "recover needs --interval=N (a snapshot ring to fall "
                 "back into)");
      CABT_CHECK(!fault_specs.empty(),
                 "recover needs at least one --fault=SPEC to recover from");
      // Clean reference run: the convergence target and the expected
      // digest trail for divergence detection.
      std::unique_ptr<platform::ReferenceBoard> ref = scenario.makeBoard();
      snap::Recorder ref_rec(*ref, interval, 4);
      ref_rec.runTo(sim::kForever);
      const snap::Observation want = snap::observe(*ref);
      // Faulted run: same ring, trail-certified divergence detection,
      // auto-recovery bounded by snap::kMaxAutoRecoveries.
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      fi::Campaign camp =
          buildCampaign(fault_specs, fi_armed, board->numCores());
      camp.arm(*board);
      snap::Recorder rec(*board, interval, 4, /*auto_recover=*/true);
      rec.expectTrail(ref_rec.digestTrail());
      rec.runTo(to);
      printFired(camp, board->numCores());
      const snap::Observation got = snap::observe(*board);
      const std::string diff = snap::firstMismatch(want, got);
      std::printf("recover %s: fired=%llu recoveries=%zu divergences=%zu "
                  "clean=0x%016llx recovered=0x%016llx %s\n",
                  scenario_name.c_str(),
                  static_cast<unsigned long long>(camp.firedCount()),
                  rec.recoveries(), rec.divergences(),
                  static_cast<unsigned long long>(want.digest),
                  static_cast<unsigned long long>(got.digest),
                  diff.empty() ? "OK" : "MISMATCH");
      printMismatch(diff);
      obs_opts.finish(*board, sink, &rec, &camp);
      return diff.empty() ? 0 : 1;
    }

    if (command == "profile") {
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      std::vector<std::unique_ptr<obs::PcSampler>> samplers;
      for (size_t i = 0; i < board->numCores(); ++i) {
        samplers.push_back(std::make_unique<obs::PcSampler>(period));
        board->core(i).setSampler(samplers.back().get());
      }
      board->run();
      std::string folded;
      for (size_t i = 0; i < board->numCores(); ++i) {
        const std::vector<obs::ProfileEntry> entries =
            obs::attributeSamples(*samplers[i], board->core(i).symbols());
        std::printf("core%zu: %llu samples, period %llu cycles\n", i,
                    static_cast<unsigned long long>(
                        samplers[i]->totalSamples()),
                    static_cast<unsigned long long>(samplers[i]->period()));
        std::fputs(obs::topTable(entries, top_n).c_str(), stdout);
        folded += obs::foldedLines("core" + std::to_string(i), entries);
      }
      if (!fold_out.empty()) {
        std::ofstream out(fold_out);
        CABT_CHECK(out.good(), "cannot open '" << fold_out << "'");
        out << folded;
        std::printf("folded %s\n", fold_out.c_str());
      }
      printSummary(*board);
      obs_opts.finish(*board, sink);
      return 0;
    }

    if (command == "save") {
      CABT_CHECK(!out_path.empty(), "save needs --out=FILE");
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      board->runTo(at);
      snap::saveFile(*board, out_path);
      std::printf("saved %s at cycle %llu digest=0x%016llx\n",
                  out_path.c_str(),
                  static_cast<unsigned long long>(board->kernel().now()),
                  static_cast<unsigned long long>(snap::digest(*board)));
      return 0;
    }

    if (command == "resume") {
      CABT_CHECK(!in_path.empty(), "resume needs --in=FILE");
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      snap::restoreFile(*board, in_path);
      board->runTo(to);
      printSummary(*board);
      return 0;
    }

    if (command == "selfcheck") {
      // Uninterrupted reference run.
      std::unique_ptr<platform::ReferenceBoard> ref = scenario.makeBoard();
      ref->run();
      const snap::Observation want = snap::observe(*ref);
      // Save mid-run, restore into a cold board, run to completion.
      std::unique_ptr<platform::ReferenceBoard> warm = scenario.makeBoard();
      warm->runTo(at);
      const std::vector<uint8_t> snapshot = snap::save(*warm);
      std::unique_ptr<platform::ReferenceBoard> cold = scenario.makeBoard();
      snap::restore(*cold, snapshot);
      cold->run();
      const snap::Observation got = snap::observe(*cold);
      const std::string diff = snap::firstMismatch(want, got);
      std::printf("selfcheck %s at=%llu: uninterrupted=0x%016llx "
                  "restored=0x%016llx %s\n",
                  scenario_name.c_str(), static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(want.digest),
                  static_cast<unsigned long long>(got.digest),
                  diff.empty() ? "OK" : "MISMATCH");
      printMismatch(diff);
      return diff.empty() ? 0 : 1;
    }

    throw Error("unknown command '" + command + "'");
  } catch (const cabt::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Anything the simulator did not classify (bad_alloc, filesystem
    // errors, ...) still exits with a one-line diagnosis, never a core.
    std::fprintf(stderr, "error: unhandled exception: %s\n", e.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "error: unhandled non-standard exception\n");
    return 2;
  }
}
