// Engine ablation: host throughput of the reference ISS's two engines —
//   * step     — the per-instruction interpretive reference (fetch,
//                decode switch and leader test per instruction), and
//   * threaded — the block engine: chained dispatch of predecoded blocks,
//                with hot blocks and superblock traces lowered into flat
//                arrays of specialized host handlers —
// per ISS detail level, on the Table-2-class workloads. Both engines are
// asserted cycle-identical before any row is reported; the
// BENCH_ablation_dispatch.json record (one row per engine, with the
// chain-hit / trace-dispatch / guard-bail counters) is what the
// bench-report CI gate checks: threaded must reach a fixed multiple of
// step on every row.
#include <chrono>

#include "bench_common.h"
#include "snap/observe.h"

namespace cabt::bench {
namespace {

struct Variant {
  const char* name;
  bool use_block_cache;
};

const Variant kVariants[] = {{"step", false}, {"threaded", true}};
constexpr size_t kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);

std::vector<std::string> workloadNames() {
  // The Table-2/Figure-5 programs big enough to time reliably (gcd
  // retires in ~700 cycles — pure measurement noise).
  return {"fibonacci", "sieve", "dpcm", "fir"};
}

struct DispatchRun {
  snap::CoreObservation obs;
  double host_seconds = 0;
  std::string hot_symbol;
  [[nodiscard]] double hostMips() const {
    return static_cast<double>(obs.stats.instructions) / host_seconds / 1e6;
  }
};

/// `metrics`/`prefix` (optional) publish the final repeat's full ISS
/// counter set into an obs registry for the METRICS_*.json record.
DispatchRun runDispatch(const elf::Object& obj, xlat::DetailLevel level,
                        bool use_block_cache, int repeats,
                        obs::MetricsRegistry* metrics = nullptr,
                        const std::string& prefix = {}) {
  const arch::ArchDescription desc = defaultArch();
  iss::IssConfig cfg = platform::issConfigFor(level);
  cfg.use_block_cache = use_block_cache;
  DispatchRun result;
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    // The constructor acquires the predecoded artifact, a one-time
    // per-program cost; the per-core overlay and trace formation are
    // part of the steady-state engine being measured.
    iss::Iss iss(desc, obj, nullptr, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    if (iss.run() != iss::StopReason::kHalted) {
      throw Error("ISS run did not halt");
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    result.obs = snap::observe(iss);
    if (r + 1 == repeats) {
      const std::vector<iss::HotBlock> hot = iss.hotBlocks(1);
      if (!hot.empty()) {
        result.hot_symbol = hot.front().symbol;
      }
      if (metrics != nullptr) {
        iss.publishMetrics(*metrics, prefix);
      }
    }
  }
  result.host_seconds = best;
  return result;
}

void printComparison() {
  printHeader("ISS engine ablation [host MIPS]",
              "the section-2 interpretation-overhead argument: step() vs "
              "the threaded block engine");
  JsonReport report("ablation_dispatch");
  obs::MetricsRegistry metrics;
  std::printf("%-10s %-14s %9s %9s %8s %10s\n", "workload", "detail", "step",
              "threaded", "thrd x", "bails");
  for (const std::string& name : workloadNames()) {
    const elf::Object obj = workloads::assemble(workloads::get(name));
    for (const xlat::DetailLevel level : xlat::kDetailLevels) {
      DispatchRun runs[kNumVariants];
      for (size_t v = 0; v < kNumVariants; ++v) {
        // Whole programs retire in micro- to milliseconds: a generous
        // best-of keeps the row stable against scheduling noise.
        const std::string variant =
            std::string(xlat::detailLevelName(level)) + "/" +
            kVariants[v].name;
        runs[v] = runDispatch(obj, level, kVariants[v].use_block_cache, 15,
                              &metrics, name + "." + variant + ".");
        const std::string diff = snap::firstMismatch(runs[0].obs, runs[v].obs);
        if (!diff.empty()) {
          throw Error("ISS engines diverged on " + name + ": " + diff);
        }
        report.add(name, variant, runs[v].obs.stats.cycles,
                   runs[v].hostMips(), &runs[v].obs.stats,
                   runs[v].hot_symbol);
      }
      std::printf("%-10s %-14s %9.2f %9.2f %7.2fx %10llu\n", name.c_str(),
                  xlat::detailLevelName(level), runs[0].hostMips(),
                  runs[1].hostMips(),
                  runs[0].host_seconds / runs[1].host_seconds,
                  static_cast<unsigned long long>(
                      runs[1].obs.stats.guard_bails));
    }
  }
  report.write();
  report.writeMetrics(metrics);
}

void registerBenchmarks() {
  for (const std::string& name : workloadNames()) {
    for (const xlat::DetailLevel level :
         {xlat::DetailLevel::kStatic, xlat::DetailLevel::kICache}) {
      for (const Variant& variant : kVariants) {
        const std::string bench_name =
            std::string("ablation_dispatch/") + name + "/" +
            xlat::detailLevelName(level) + "/" + variant.name;
        const bool block_cache = variant.use_block_cache;
        benchmark::RegisterBenchmark(
            bench_name.c_str(),
            [name, level, block_cache](benchmark::State& state) {
              const elf::Object obj =
                  workloads::assemble(workloads::get(name));
              uint64_t instructions = 0;
              for (auto _ : state) {
                const DispatchRun r = runDispatch(obj, level, block_cache, 1);
                instructions = r.obs.stats.instructions;
                benchmark::DoNotOptimize(instructions);
              }
              state.counters["instructions"] =
                  static_cast<double>(instructions);
              state.counters["mips_host"] = benchmark::Counter(
                  static_cast<double>(instructions) * 1e-6,
                  benchmark::Counter::kIsIterationInvariantRate);
            })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  cabt::bench::printComparison();
  benchmark::Initialize(&argc, argv);
  cabt::bench::registerBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
