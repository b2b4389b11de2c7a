// Parallel-round scaling sweep: N-core reference boards under the
// sequential kernel vs parallel rounds (sim::Kernel::ParallelConfig),
// across temporal-decoupling quanta.
//
// Two board families:
//   * workers_N — N copies of mc_worker (long private MAC quanta, one
//     shared progress beacon per outer iteration): the parallel-friendly
//     shape. Host MIPS should scale with min(N, host cores) once the
//     quantum amortises the round barrier; results are bit-identical to
//     the sequential kernel by construction (tests/parallel_test.cpp).
//   * mc_pair — the bus-coupled producer/consumer pair: almost every
//     slice bails to the sequential drain immediately, so this measures
//     the determinism overhead floor, not a speedup.
//
// scripts/bench_report.py gates the BENCH_parallel_cores.json record:
// parallel must not fall below sequential at quantum >= 256.
#include <chrono>

#include "bench_common.h"
#include "sim/kernel.h"

namespace cabt::bench {
namespace {

struct ParallelRun {
  uint64_t cycles = 0;        ///< summed core cycles
  uint64_t instructions = 0;  ///< all cores
  uint64_t kernel_events = 0;
  uint64_t prefixes = 0;
  uint64_t slices = 0;
  uint64_t bails = 0;
  double host_seconds = 0;
  [[nodiscard]] double hostMips() const {
    return static_cast<double>(instructions) / host_seconds / 1e6;
  }
};

/// workers_N: N copies of mc_worker.
workloads::BoardImages makeWorkers(size_t n) {
  return workloads::BoardImages::named(
      std::vector<std::string>(n, "mc_worker"));
}

ParallelRun runBoard(const workloads::BoardImages& b, sim::Cycle quantum,
                     bool parallel, int repeats) {
  const arch::ArchDescription desc = defaultArch();
  ParallelRun result;
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    platform::BoardConfig cfg;
    cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
    cfg.iss.extra_leaders = b.extraLeaders();
    cfg.quantum = quantum;
    cfg.parallel.enabled = parallel;
    platform::ReferenceBoard board(desc, b.ptrs(), cfg);
    const auto t0 = std::chrono::steady_clock::now();
    if (board.run() != iss::StopReason::kHalted) {
      throw Error("parallel-cores board did not halt");
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    result.cycles = 0;
    result.instructions = 0;
    result.slices = 0;
    result.bails = 0;
    for (size_t i = 0; i < board.numCores(); ++i) {
      result.cycles += board.core(i).stats().cycles;
      result.instructions += board.core(i).stats().instructions;
      result.slices += board.core(i).stats().private_slices;
      result.bails += board.core(i).stats().private_bails;
    }
    for (size_t i = 0; i < board.numCores(); ++i) {
      const uint32_t want = *b.programs()[i].expected_checksum;
      if (workloads::readChecksum(b.image(i), board.core(i).memory()) !=
          want) {
        throw Error("parallel-cores checksum mismatch");
      }
    }
    result.kernel_events = board.kernel().eventsDispatched();
    result.prefixes = board.kernel().parallelPrefixes();
  }
  result.host_seconds = best;
  return result;
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Parallel quantum rounds: N-core scaling sweep",
              "the ROADMAP extension of the event kernel (DESIGN.md §7)");
  std::printf("(host threads: pool width follows hardware_concurrency; "
              "speedup saturates at min(cores, host threads))\n");
  const cabt::sim::Cycle quanta[] = {16, 256, 1024, 4096};
  JsonReport report("parallel_cores");
  std::printf("%-12s %8s %6s %12s %10s %10s %10s %8s\n", "board", "quantum",
              "mode", "instrs", "events", "prefixes", "host MIPS",
              "speedup");
  for (const size_t cores : {1u, 2u, 4u, 8u}) {
    const auto board = makeWorkers(cores);
    const std::string name = "workers_" + std::to_string(cores);
    for (const cabt::sim::Cycle quantum : quanta) {
      const ParallelRun seq = runBoard(board, quantum, false, 3);
      const ParallelRun par = runBoard(board, quantum, true, 3);
      std::printf("%-12s %8llu %6s %12llu %10llu %10s %10.2f %8s\n",
                  name.c_str(), static_cast<unsigned long long>(quantum),
                  "seq",
                  static_cast<unsigned long long>(seq.instructions),
                  static_cast<unsigned long long>(seq.kernel_events), "-",
                  seq.hostMips(), "-");
      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    par.hostMips() / seq.hostMips());
      std::printf("%-12s %8llu %6s %12llu %10llu %10llu %10.2f %8s\n",
                  name.c_str(), static_cast<unsigned long long>(quantum),
                  "par",
                  static_cast<unsigned long long>(par.instructions),
                  static_cast<unsigned long long>(par.kernel_events),
                  static_cast<unsigned long long>(par.prefixes),
                  par.hostMips(), speedup);
      report.add(name, "seq/quantum_" + std::to_string(quantum), seq.cycles,
                 seq.hostMips());
      report.add(name, "par/quantum_" + std::to_string(quantum), par.cycles,
                 par.hostMips());
    }
  }
  {
    const auto pair = cabt::workloads::BoardImages::family(2);
    for (const cabt::sim::Cycle quantum : quanta) {
      const ParallelRun seq = runBoard(pair, quantum, false, 3);
      const ParallelRun par = runBoard(pair, quantum, true, 3);
      std::printf("%-12s %8llu %6s %12llu %10llu %10s %10.2f %8s\n",
                  "mc_pair", static_cast<unsigned long long>(quantum), "seq",
                  static_cast<unsigned long long>(seq.instructions),
                  static_cast<unsigned long long>(seq.kernel_events), "-",
                  seq.hostMips(), "-");
      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    par.hostMips() / seq.hostMips());
      std::printf("%-12s %8llu %6s %12llu %10llu %10llu %10.2f %8s\n",
                  "mc_pair", static_cast<unsigned long long>(quantum), "par",
                  static_cast<unsigned long long>(par.instructions),
                  static_cast<unsigned long long>(par.kernel_events),
                  static_cast<unsigned long long>(par.prefixes),
                  par.hostMips(), speedup);
      report.add("mc_pair", "seq/quantum_" + std::to_string(quantum),
                 seq.cycles, seq.hostMips());
      report.add("mc_pair", "par/quantum_" + std::to_string(quantum),
                 par.cycles, par.hostMips());
    }
  }
  report.write();
  std::printf("\n(checksums asserted on every run; parallel results are "
              "bit-identical to the sequential kernel — the grid proof "
              "lives in tests/parallel_test.cpp)\n");

  benchmark::Initialize(&argc, argv);
  for (const size_t cores : {4u, 8u}) {
    for (const bool parallel : {false, true}) {
      benchmark::RegisterBenchmark(
          ("parallel_cores/workers_" + std::to_string(cores) +
           (parallel ? "/par" : "/seq") + "/quantum_1024")
              .c_str(),
          [cores, parallel](benchmark::State& state) {
            const auto board = makeWorkers(cores);
            ParallelRun run;
            for (auto _ : state) {
              run = runBoard(board, 1024, parallel, 1);
            }
            state.counters["mips_host"] = run.hostMips();
            state.counters["prefixes"] = static_cast<double>(run.prefixes);
            state.counters["bails"] = static_cast<double>(run.bails);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
