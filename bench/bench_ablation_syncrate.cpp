// Ablation B: the synchronization device's generation rate.
//
// The paper fixes the FPGA cycle-generation hardware; here the rate (VLIW
// cycles per generated SoC cycle) is a platform parameter. A slow rate
// makes the "wait for end of cycle generation" instruction actually wait
// (sync stalls), showing the paper's trade-off between the emulated
// clock's real-time behaviour and execution speed. The generated cycle
// count must be rate-invariant (cycle accuracy is preserved). The host
// column is the platform run's source MIPS, best of three: it shows what
// a stalled cycle costs the host, which the cycle columns cannot.
#include <algorithm>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Ablation: SoC cycle generation rate",
              "the synchronization device of section 3.1");
  const cabt::arch::ArchDescription desc = defaultArch();
  const unsigned rates[] = {1, 2, 4, 8};
  JsonReport report("ablation_syncrate");
  std::printf("%-10s %6s %14s %14s %14s %10s %10s\n", "workload", "rate",
              "vliw cycles", "sync stalls", "generated", "slowdown",
              "host MIPS");
  for (const std::string& name : cabt::workloads::figure5Names()) {
    const cabt::elf::Object obj =
        cabt::workloads::assemble(cabt::workloads::get(name));
    const uint64_t instructions = runBoard(desc, obj).instructions;
    uint64_t base_cycles = 0;
    uint64_t generated_ref = 0;
    for (const unsigned rate : rates) {
      cabt::platform::PlatformConfig cfg;
      cfg.vliw_cycles_per_soc_cycle = rate;
      VariantRun run = runVariant(
          desc, obj, cabt::xlat::DetailLevel::kBranchPredict, cfg);
      for (int rep = 1; rep < 3; ++rep) {
        run.host_seconds = std::min(
            run.host_seconds,
            runVariant(desc, obj, cabt::xlat::DetailLevel::kBranchPredict,
                       cfg)
                .host_seconds);
      }
      if (rate == 1) {
        base_cycles = run.vliw_cycles;
        generated_ref = run.generated_cycles;
      } else if (run.generated_cycles != generated_ref) {
        throw cabt::Error("generation rate changed the cycle count");
      }
      std::printf("%-10s %6u %14llu %14llu %14llu %9.2fx %10.2f\n",
                  name.c_str(), rate,
                  static_cast<unsigned long long>(run.vliw_cycles),
                  static_cast<unsigned long long>(run.sync_stalls),
                  static_cast<unsigned long long>(run.generated_cycles),
                  static_cast<double>(run.vliw_cycles) /
                      static_cast<double>(base_cycles),
                  run.hostMips(instructions));
      report.add(name, "rate_" + std::to_string(rate), run.vliw_cycles,
                 run.hostMips(instructions));
    }
  }
  report.write();
  std::printf("\n(the generated cycle stream is identical at every rate; "
              "only the wall-clock cost of waiting changes)\n");

  benchmark::Initialize(&argc, argv);
  for (const unsigned rate : {1u, 4u}) {
    benchmark::RegisterBenchmark(
        ("ablation_syncrate/rate_" + std::to_string(rate)).c_str(),
        [rate](benchmark::State& state) {
          const auto desc = defaultArch();
          const auto obj =
              cabt::workloads::assemble(cabt::workloads::get("gcd"));
          VariantRun run;
          for (auto _ : state) {
            cabt::platform::PlatformConfig cfg;
            cfg.vliw_cycles_per_soc_cycle = rate;
            run = runVariant(desc, obj,
                             cabt::xlat::DetailLevel::kBranchPredict, cfg);
          }
          state.counters["sync_stalls"] =
              static_cast<double>(run.sync_stalls);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
