// Armed-idle fault-injection overhead (DESIGN.md section 12).
//
// The non-perturbation invariant has a performance face: an armed
// campaign whose faults never fire costs one due-time compare per
// boundary epoch per core, exactly like an attached-but-idle PcSampler.
// This harness measures the reference board's host MIPS three ways —
// FI off, FI armed-idle, and FI armed-idle with a periodic snapshot
// ring (snap::Recorder) — and checks what the measurement relies on:
// every board halts, no armed fault fires, and every armed-idle digest
// equals the FI-off digest; any failure throws. The armed-idle over
// FI-off ratio it prints is not gated anywhere: its BENCH_fi_overhead.json
// rows face only scripts/bench_report.py's opt-in --baseline
// comparison, like every bench's.
#include <chrono>
#include <optional>

#include "bench_common.h"
#include "fi/fi.h"
#include "snap/recorder.h"
#include "snap/snapshot.h"

namespace cabt::bench {
namespace {

workloads::BoardImages makeWorker() {
  return workloads::BoardImages::named({"mc_worker"});
}

enum class Mode { kOff, kArmedIdle, kArmedIdleRing };

const char* modeName(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "fi_off";
    case Mode::kArmedIdle:
      return "fi_armed_idle";
    default:
      return "fi_armed_idle_ring";
  }
}

struct FiRun {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t digest = 0;
  double host_seconds = 0;
  [[nodiscard]] double hostMips() const {
    return static_cast<double>(instructions) / host_seconds / 1e6;
  }
};

FiRun runBoard(const workloads::BoardImages& b, Mode mode, int repeats) {
  const arch::ArchDescription desc = defaultArch();
  FiRun result;
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    platform::BoardConfig cfg;
    cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
    platform::ReferenceBoard board(desc, b.ptrs(), cfg);
    fi::Campaign camp;
    if (mode != Mode::kOff) {
      // One armed-but-never-due fault per category: the fast-path cost
      // of a live campaign without any fault ever firing.
      fi::FaultSpec reg;
      reg.kind = fi::FaultKind::kDataRegFlip;
      reg.cycle = fi::CoreInjector::kNever;
      reg.index = 15;
      reg.mask = 1;
      camp.add(reg);
      fi::FaultSpec bus;
      bus.kind = fi::FaultKind::kBusError;
      bus.cycle = fi::CoreInjector::kNever;
      bus.addr = 0xf0000300u;
      camp.add(bus);
      fi::FaultSpec stall;
      stall.kind = fi::FaultKind::kDeviceStall;
      stall.cycle = fi::CoreInjector::kNever;
      stall.device = "scratch";
      camp.add(stall);
      camp.arm(board);
    }
    std::optional<snap::Recorder> recorder;
    if (mode == Mode::kArmedIdleRing) {
      recorder.emplace(board, 65536, 2);
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (recorder) {
      recorder->runTo(sim::kForever);
    } else {
      board.run();
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (board.core(0).stopReason() != iss::StopReason::kHalted) {
      throw Error("fi-overhead board did not halt");
    }
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    if (camp.firedCount() != 0) {
      throw Error("armed-idle campaign fired a fault");
    }
    result.instructions = board.core(0).stats().instructions;
    result.cycles = board.core(0).stats().cycles;
    result.digest = snap::digest(board);
  }
  result.host_seconds = best;
  return result;
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Fault-injection armed-idle overhead",
              "non-perturbation invariant, DESIGN.md section 12");
  const auto board = makeWorker();
  JsonReport report("fi_overhead");
  std::printf("%-20s %12s %12s %10s %8s\n", "mode", "instrs", "cycles",
              "host MIPS", "vs off");
  FiRun off;
  for (const Mode mode :
       {Mode::kOff, Mode::kArmedIdle, Mode::kArmedIdleRing}) {
    const FiRun run = runBoard(board, mode, 3);
    if (mode == Mode::kOff) {
      off = run;
    } else if (run.digest != off.digest) {
      // The measurement is only meaningful while the invariant holds.
      throw cabt::Error("armed-idle digest diverged from FI off");
    }
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.3fx",
                  off.host_seconds / run.host_seconds);
    std::printf("%-20s %12llu %12llu %10.2f %8s\n", modeName(mode),
                static_cast<unsigned long long>(run.instructions),
                static_cast<unsigned long long>(run.cycles), run.hostMips(),
                mode == Mode::kOff ? "-" : ratio);
    report.add("mc_worker", modeName(mode), run.cycles, run.hostMips());
  }
  report.write();
  std::printf("\n(armed-idle digest asserted identical to FI off on every "
              "run; the cross-engine grid proof lives in tests/fi_test.cpp)"
              "\n");

  benchmark::Initialize(&argc, argv);
  for (const Mode mode : {Mode::kOff, Mode::kArmedIdle}) {
    benchmark::RegisterBenchmark(
        (std::string("fi_overhead/mc_worker/") + modeName(mode)).c_str(),
        [mode](benchmark::State& state) {
          const auto b = makeWorker();
          FiRun run;
          for (auto _ : state) {
            run = runBoard(b, mode, 1);
          }
          state.counters["mips_host"] = run.hostMips();
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
