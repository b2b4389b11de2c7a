// Fleet scaling sweep: M single-core reference boards scheduled over
// the host pool by the fleet driver (src/fleet), swept across fleet
// sizes.
//
// Each board runs a bench-local MAC loop of about 20M instructions
// (0.1-0.25 s per board on a 4-vCPU x86-64 host), so the sweep measures
// boards running in parallel, not the scheduler. The fleet's keep test
// (DESIGN.md section 14.2) reads this sweep: 4 boards must reach at
// least 2x the single board's aggregate MIPS.
//
// What the BENCH_fleet.json record is gated on (scripts/bench_report.py
// --require-fleet):
//   * determinism — every board of a fleet, and every repeat of a
//     sweep point, produces the same snap digest (the row carries it);
//   * decode-once sharing — each sweep point reports
//     artifact_decodes == distinct images: the whole fleet shared one
//     ProgramArtifact per image through the process-wide cache;
//   * throughput — aggregate host MIPS at M >= 2 boards must not fall
//     below 0.9x the single-board baseline. The floor is not the keep
//     test's 2x: shared runners read under 2x often enough to flake.
#include <chrono>
#include <cinttypes>

#include "bench_common.h"
#include "core/program_artifact.h"
#include "fleet/fleet.h"

namespace cabt::bench {
namespace {

struct FleetRow {
  std::string workload;
  std::string variant;
  uint64_t cycles = 0;       ///< summed board SoC cycles
  double host_mips = 0.0;    ///< aggregate, fleet-wide
  double boards_per_sec = 0.0;
  uint64_t digest = 0;       ///< the (shared) per-board digest
  size_t boards = 0;
  uint64_t artifact_decodes = 0;
  uint64_t artifact_hits = 0;
  size_t images = 0;
};

/// BENCH_fleet.json writer: same envelope as bench::JsonReport, plus
/// the fleet-specific row fields the report gate reads (digest, board
/// count, artifact-cache activity).
void writeFleetReport(const std::vector<FleetRow>& rows) {
  const std::string path = benchOutputPath("BENCH_fleet.json");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"fleet\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const FleetRow& r = rows[i];
    char mips[32];
    std::snprintf(mips, sizeof(mips), "%.3f", r.host_mips);
    char bps[32];
    std::snprintf(bps, sizeof(bps), "%.3f", r.boards_per_sec);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, r.digest);
    out << "    {\"workload\": \"" << r.workload << "\", \"variant\": \""
        << r.variant << "\", \"cycles\": " << r.cycles
        << ", \"host_mips\": " << mips << ", \"boards\": " << r.boards
        << ", \"boards_per_sec\": " << bps << ", \"digest\": \"" << digest
        << "\", \"artifact_decodes\": " << r.artifact_decodes
        << ", \"artifact_hits\": " << r.artifact_hits
        << ", \"images\": " << r.images << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// A private MAC loop with a rare shared progress beacon: 13,000 passes
/// over a 256-word array, about 20.0M instructions to halt.
constexpr const char* kFleetLoop = R"(
_start: movha a6, 0xf000      ; I/O region (scratch block at +0x300)
        movha a0, hi(x)
        lea a0, a0, lo(x)
        movi d1, 7777         ; LCG seed
        movi d2, 25173
        movi d3, 13849
        movi d13, 255
        movi d0, 256
xinit:  mul d1, d1, d2
        add d1, d1, d3
        and d4, d1, d13
        stw d4, [a0]0
        lea a0, a0, 4
        addi16 d0, -1
        jnz16 d0, xinit
        movi d0, 13000        ; outer iterations
        movi d9, 0            ; running checksum
outer:  movha a3, hi(x)
        lea a3, a3, lo(x)
        movi d6, 256
mac:    ldw d7, [a3]0
        mul d10, d7, d6
        add d9, d9, d10
        lea a3, a3, 4
        addi16 d6, -1
        jnz16 d6, mac
        stw d9, [a6]0x31c     ; progress beacon: scratch register 7
        addi16 d0, -1
        jnz16 d0, outer
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
        .bss
x:      .space 1024
)";

fleet::FleetConfig fleetConfig(size_t boards) {
  fleet::FleetConfig cfg;
  cfg.desc = defaultArch();
  cfg.board.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
  cfg.boards = boards;
  return cfg;
}

fleet::FleetResult runFleet(const workloads::BoardImages& images,
                            size_t boards) {
  // A cold cache per sweep point makes the decode accounting exact:
  // the whole fleet must come to one decode per distinct image.
  core::ProgramArtifactCache::instance().clear();
  fleet::Driver driver(fleetConfig(boards));
  fleet::FleetResult result = driver.run(images.ptrs());
  for (const fleet::BoardResult& b : result.boards) {
    if (b.stop != iss::StopReason::kHalted) {
      throw Error("fleet board did not halt");
    }
  }
  if (!result.digestsAgree()) {
    throw Error("fleet boards diverged");
  }
  if (result.artifact.decodes != images.ptrs().size()) {
    throw Error("fleet re-decoded a shared image");
  }
  return result;
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Board-fleet scaling sweep",
              "the fleet-driver extension (DESIGN.md §14)");
  std::printf("(M independent boards over the shared host pool; digests "
              "must agree across boards, repeats and fleet sizes)\n\n");
  const auto images = cabt::workloads::BoardImages::assembled({kFleetLoop});
  constexpr int kRepeats = 2;
  std::vector<FleetRow> rows;
  cabt::obs::MetricsRegistry reg;
  uint64_t reference_digest = 0;
  double single_mips = 0.0;
  double keep_ratio = 0.0;
  std::printf("%-10s %6s %12s %12s %10s %8s %8s\n", "fleet", "run",
              "instrs", "boards/sec", "agg MIPS", "decodes", "speedup");
  for (const size_t boards : {1u, 2u, 4u, 8u}) {
    double best_mips = 0.0;
    for (int run = 0; run < kRepeats; ++run) {
      const cabt::fleet::FleetResult r = runFleet(images, boards);
      const uint64_t digest = r.boards.front().digest;
      if (reference_digest == 0) {
        reference_digest = digest;
      } else if (digest != reference_digest) {
        throw cabt::Error("fleet digest drifted across sweep points");
      }
      best_mips = std::max(best_mips, r.aggregateMips());
      uint64_t cycles = 0;
      for (const cabt::fleet::BoardResult& b : r.boards) {
        cycles += b.soc_cycles;
      }
      rows.push_back({"fleet_mac",
                      "fleet_" + std::to_string(boards) + "/run" +
                          std::to_string(run),
                      cycles, r.aggregateMips(), r.boardsPerSec(), digest,
                      boards, r.artifact.decodes, r.artifact.hits,
                      images.ptrs().size()});
      std::printf("%-10zu %6d %12" PRIu64 " %12.2f %10.2f %8" PRIu64,
                  boards, run, r.totalInstructions(), r.boardsPerSec(),
                  r.aggregateMips(), r.artifact.decodes);
      if (single_mips > 0.0) {
        std::printf(" %7.2fx", r.aggregateMips() / single_mips);
      } else {
        std::printf(" %8s", "-");
      }
      std::printf("\n");
      if (boards == 8 && run == 0) {
        r.publishMetrics(reg);
      }
    }
    if (boards == 1) {
      single_mips = best_mips;
    } else if (boards == 4) {
      keep_ratio = best_mips / single_mips;
    }
  }
  std::printf("\nkeep test: 4 boards reach %.2fx the single board's "
              "aggregate MIPS (the fleet earns its place at >= 2x)\n",
              keep_ratio);
  writeFleetReport(rows);
  {
    const std::string path = benchOutputPath("METRICS_fleet.json");
    std::ofstream out(path);
    if (out) {
      out << reg.toJson();
    }
  }
  std::printf("\n(every row carries its digest and decode count; "
              "scripts/bench_report.py --require-fleet gates run-to-run "
              "digest identity, decode-once sharing and aggregate MIPS "
              ">= 0.9x the single-board baseline)\n");

  benchmark::Initialize(&argc, argv);
  for (const size_t boards : {1u, 4u}) {
    benchmark::RegisterBenchmark(
        ("fleet/boards_" + std::to_string(boards)).c_str(),
        [&images, boards](benchmark::State& state) {
          cabt::fleet::FleetResult r;
          for (auto _ : state) {
            r = runFleet(images, boards);
          }
          state.counters["mips_aggregate"] = r.aggregateMips();
          state.counters["boards_per_sec"] = r.boardsPerSec();
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
