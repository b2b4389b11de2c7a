// Figure 5 reproduction: comparison of execution speed (million source
// instructions per second) of the TC10GP evaluation board against the
// translated code at the four variants, for the six example programs.
//
// The paper's qualitative claims this regenerates:
//  * large-basic-block programs (ellip, subband) translate fastest and
//    can beat the 48 MHz board on the 200 MHz VLIW;
//  * sieve, consisting of many small blocks, pays the most for cycle
//    generation (one start/wait pair per block);
//  * speed drops monotonically with the detail level, with a large drop
//    at the cache level.
#include "bench_common.h"

namespace cabt::bench {
namespace {

struct Row {
  std::string workload;
  BoardRun board;
  std::vector<VariantRun> variants;  // parallel to xlat::kDetailLevels
};

std::vector<Row> collect() {
  std::vector<Row> rows;
  const arch::ArchDescription desc = defaultArch();
  for (const std::string& name : workloads::figure5Names()) {
    const elf::Object obj = workloads::assemble(workloads::get(name));
    Row row;
    row.workload = name;
    row.board = runBoard(desc, obj);
    for (const xlat::DetailLevel level : xlat::kDetailLevels) {
      row.variants.push_back(runVariant(desc, obj, level));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void printFigure(const std::vector<Row>& rows) {
  printHeader("Comparison of speed [MIPS]", "Figure 5");
  double max_mips = 0;
  for (const Row& r : rows) {
    max_mips = std::max(max_mips, r.board.mips());
    for (size_t v = 0; v < r.variants.size(); ++v) {
      max_mips = std::max(max_mips,
                          r.variants[v].mips(r.board.instructions));
    }
  }
  for (const Row& r : rows) {
    std::printf("\n%s (%llu source instructions)\n", r.workload.c_str(),
                static_cast<unsigned long long>(r.board.instructions));
    printBar("TC10GP board", r.board.mips(), max_mips, "MIPS");
    for (size_t v = 0; v < r.variants.size(); ++v) {
      printBar(variantLabel(xlat::kDetailLevels[v]),
               r.variants[v].mips(r.board.instructions), max_mips, "MIPS");
    }
  }
  std::printf("\n%-10s %12s %12s %12s %12s %12s\n", "workload", "board",
              "w/o cycle", "cycle inf.", "branch pred", "cache");
  for (const Row& r : rows) {
    std::printf("%-10s %12.2f", r.workload.c_str(), r.board.mips());
    for (const VariantRun& v : r.variants) {
      std::printf(" %12.2f", v.mips(r.board.instructions));
    }
    std::printf("\n");
  }
  std::printf("\nreference board host speed (block-cached ISS):\n");
  std::printf("%-10s %14s %10s  %s\n", "workload", "host MIPS", "cached",
              "hottest block");
  for (const Row& r : rows) {
    std::printf("%-10s %14.2f %9.1f%%  %s\n", r.workload.c_str(),
                r.board.hostMips(), r.board.cacheShare() * 100.0,
                r.board.hot_symbol.c_str());
  }
}

void registerBenchmarks(const std::vector<Row>& rows) {
  const arch::ArchDescription desc = defaultArch();
  for (const Row& row : rows) {
    // Host speed of the reference board itself (the block-cached ISS).
    const std::string workload_name = row.workload;
    benchmark::RegisterBenchmark(
        ("fig5/" + row.workload + "/board_host").c_str(),
        [workload_name, desc](benchmark::State& state) {
          const elf::Object obj =
              workloads::assemble(workloads::get(workload_name));
          BoardRun board;
          for (auto _ : state) {
            board = runBoard(desc, obj);
          }
          state.counters["mips_host"] = board.hostMips();
          state.counters["cached_block_share"] = board.cacheShare();
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    for (size_t v = 0; v < row.variants.size(); ++v) {
      const xlat::DetailLevel level = xlat::kDetailLevels[v];
      const std::string name =
          "fig5/" + row.workload + "/" + xlat::detailLevelName(level);
      const std::string workload = row.workload;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [workload, level, desc](benchmark::State& state) {
            const elf::Object obj =
                workloads::assemble(workloads::get(workload));
            const BoardRun board = runBoard(desc, obj);
            VariantRun run;
            for (auto _ : state) {
              run = runVariant(desc, obj, level);
            }
            state.counters["mips_modeled"] = run.mips(board.instructions);
            state.counters["vliw_cycles"] =
                static_cast<double>(run.vliw_cycles);
            state.counters["cpi"] = run.cpi(board.instructions);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  const auto rows = cabt::bench::collect();
  cabt::bench::printFigure(rows);
  {
    cabt::bench::JsonReport report("fig5_speed");
    cabt::obs::MetricsRegistry metrics;
    for (const auto& r : rows) {
      report.add(r.workload, "board", r.board.cycles, r.board.hostMips(),
                 &r.board.stats, r.board.hot_symbol);
      metrics.setCounter("fig5." + r.workload + ".board.instructions",
                         r.board.stats.instructions);
      metrics.setCounter("fig5." + r.workload + ".board.cycles",
                         r.board.stats.cycles);
      metrics.setCounter("fig5." + r.workload + ".board.icache_misses",
                         r.board.stats.icache_misses);
      metrics.observe("fig5.board.host_mips_x100",
                      static_cast<uint64_t>(r.board.hostMips() * 100.0));
      for (size_t v = 0; v < r.variants.size(); ++v) {
        report.add(r.workload,
                   cabt::xlat::detailLevelName(cabt::xlat::kDetailLevels[v]),
                   r.variants[v].vliw_cycles,
                   r.variants[v].hostMips(r.board.instructions));
      }
    }
    report.write();
    report.writeMetrics(metrics);
  }
  benchmark::Initialize(&argc, argv);
  cabt::bench::registerBenchmarks(rows);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
