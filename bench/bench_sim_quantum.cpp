// Multi-core quantum sweep: the timer/interrupt-controller workload
// (mc_producer + mc_consumer) on the two-core reference board at every
// detail-level-equivalent ISS configuration, across temporal-decoupling
// quanta. Generalizes the sync-rate ablation: the quantum is the event
// kernel's speed/accuracy knob — host throughput rises with the quantum
// (fewer kernel yields), while cross-core visibility latency grows with
// it (the consumer's modelled completion time drifts).
#include <chrono>

#include "bench_common.h"
#include "sim/kernel.h"

namespace cabt::bench {
namespace {

struct QuantumRun {
  uint64_t core0_cycles = 0;
  uint64_t core1_cycles = 0;
  uint64_t instructions = 0;  ///< both cores
  uint64_t kernel_events = 0;
  double host_seconds = 0;
  iss::IssStats core0_stats;
  [[nodiscard]] double hostMips() const {
    return static_cast<double>(instructions) / host_seconds / 1e6;
  }
};

QuantumRun runMulticore(xlat::DetailLevel level, sim::Cycle quantum,
                        int repeats) {
  const arch::ArchDescription desc = defaultArch();
  const auto images = workloads::BoardImages::family(2);
  const elf::Object& producer = images.image(0);
  const elf::Object& consumer = images.image(1);
  QuantumRun result;
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    platform::BoardConfig cfg;
    cfg.iss = platform::issConfigFor(level);
    cfg.iss.extra_leaders = images.extraLeaders();
    cfg.quantum = quantum;
    platform::ReferenceBoard board(desc, images.ptrs(), cfg);
    const auto t0 = std::chrono::steady_clock::now();
    if (board.run() != iss::StopReason::kHalted) {
      throw Error("multi-core run did not halt");
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    if (workloads::readChecksum(producer, board.core(0).memory()) != 1544u ||
        workloads::readChecksum(consumer, board.core(1).memory()) != 1544u) {
      throw Error("multi-core checksum mismatch");
    }
    result.core0_cycles = board.core(0).stats().cycles;
    result.core1_cycles = board.core(1).stats().cycles;
    result.instructions = board.core(0).stats().instructions +
                          board.core(1).stats().instructions;
    result.kernel_events = board.kernel().eventsDispatched();
    result.core0_stats = board.core(0).stats();
  }
  result.host_seconds = best;
  return result;
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Multi-core temporal-decoupling quantum sweep",
              "the event kernel generalizing the sync-rate ablation");
  const cabt::sim::Cycle quanta[] = {1, 16, 256, 4096};
  JsonReport report("sim_quantum");
  std::printf("%-14s %8s %12s %12s %10s %10s %10s\n", "detail", "quantum",
              "core0 cyc", "core1 cyc", "events", "instrs", "host MIPS");
  for (const cabt::xlat::DetailLevel level :
       {cabt::xlat::DetailLevel::kFunctional,
        cabt::xlat::DetailLevel::kStatic,
        cabt::xlat::DetailLevel::kBranchPredict,
        cabt::xlat::DetailLevel::kICache}) {
    for (const cabt::sim::Cycle quantum : quanta) {
      const QuantumRun run = runMulticore(level, quantum, 3);
      std::printf("%-14s %8llu %12llu %12llu %10llu %10llu %10.2f\n",
                  cabt::xlat::detailLevelName(level),
                  static_cast<unsigned long long>(quantum),
                  static_cast<unsigned long long>(run.core0_cycles),
                  static_cast<unsigned long long>(run.core1_cycles),
                  static_cast<unsigned long long>(run.kernel_events),
                  static_cast<unsigned long long>(run.instructions),
                  run.hostMips());
      report.add(std::string("mc_producer+mc_consumer/") +
                     cabt::xlat::detailLevelName(level),
                 "quantum_" + std::to_string(quantum),
                 run.core0_cycles + run.core1_cycles, run.hostMips(),
                 &run.core0_stats);
    }
  }
  report.write();
  std::printf("\n(checksums asserted identical — 1544 on both cores — at "
              "every configuration; the quantum trades kernel events for "
              "cross-core visibility latency)\n");

  benchmark::Initialize(&argc, argv);
  for (const cabt::sim::Cycle quantum : quanta) {
    benchmark::RegisterBenchmark(
        ("sim_quantum/icache/quantum_" + std::to_string(quantum)).c_str(),
        [quantum](benchmark::State& state) {
          QuantumRun run;
          for (auto _ : state) {
            run = runMulticore(cabt::xlat::DetailLevel::kICache, quantum, 1);
          }
          state.counters["mips_host"] = run.hostMips();
          state.counters["kernel_events"] =
              static_cast<double>(run.kernel_events);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
