// Ablation C (the section-2 taxonomy): host execution speed of the
// interpretive ISS against the compiled-simulation route (translate once,
// then run the translated code on the VLIW platform model) and against
// the RT-level model. This is the "compiled simulation reaches the
// fastest execution speed" argument of the paper's related-work section,
// measured on the host running this repository's simulators.
#include <chrono>

#include "bench_common.h"
#include "rtlsim/rtlsim.h"

namespace cabt::bench {
namespace {

/// Best of three runs, so one descheduled run on a loaded host does not
/// decide a row (CI compares the vehicles' rows within one record).
double time(const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Ablation: host speed of the simulation vehicles",
              "the ISS taxonomy of section 2");
  const cabt::arch::ArchDescription desc = defaultArch();
  JsonReport report("ablation_iss_vs_xlat");
  std::printf("%-10s %12s %12s %12s %12s\n", "workload", "rtl host",
              "iss host", "xlat L0 host", "xlat L3 host");
  for (const std::string& name : cabt::workloads::figure5Names()) {
    const cabt::elf::Object obj =
        cabt::workloads::assemble(cabt::workloads::get(name));
    const double t_rtl = time([&] {
      cabt::rtlsim::RtlCore rtl(desc, obj);
      rtl.run();
    });
    uint64_t iss_instructions = 0;
    uint64_t iss_cycles = 0;
    const double t_iss = time([&] {
      cabt::iss::Iss iss(desc, obj);
      iss.run();
      iss_instructions = iss.stats().instructions;
      iss_cycles = iss.stats().cycles;
    });
    // Translation happens once; only the run is timed (compiled
    // simulation amortises the static translation).
    cabt::xlat::TranslateOptions o0;
    o0.level = cabt::xlat::DetailLevel::kFunctional;
    const auto t0img = cabt::xlat::translate(desc, obj, o0);
    const double t_l0 = time([&] {
      cabt::platform::EmulationPlatform plat(desc, t0img.image);
      plat.run();
    });
    cabt::xlat::TranslateOptions o3;
    o3.level = cabt::xlat::DetailLevel::kICache;
    const auto t3img = cabt::xlat::translate(desc, obj, o3);
    const double t_l3 = time([&] {
      cabt::platform::EmulationPlatform plat(desc, t3img.image);
      plat.run();
    });
    std::printf("%-10s %12s %12s %12s %12s\n", name.c_str(),
                humanTime(t_rtl).c_str(), humanTime(t_iss).c_str(),
                humanTime(t_l0).c_str(), humanTime(t_l3).c_str());
    const double mi = static_cast<double>(iss_instructions) / 1e6;
    report.add(name, "rtl-host", iss_cycles, mi / t_rtl);
    report.add(name, "iss-host", iss_cycles, mi / t_iss);
    report.add(name, "xlat-l0-host", iss_cycles, mi / t_l0);
    report.add(name, "xlat-l3-host", iss_cycles, mi / t_l3);
  }
  report.write();
  std::printf("\n(ordering expected: RT-level slowest by orders of "
              "magnitude; detail levels trade host speed for accuracy)\n");

  benchmark::Initialize(&argc, argv);
  for (const char* vehicle : {"rtl", "iss", "xlat_l0", "xlat_l3"}) {
    const std::string v = vehicle;
    benchmark::RegisterBenchmark(
        ("ablation_vehicles/" + v + "/sieve").c_str(),
        [v](benchmark::State& state) {
          const auto desc = defaultArch();
          const auto obj =
              cabt::workloads::assemble(cabt::workloads::get("sieve"));
          for (auto _ : state) {
            if (v == "rtl") {
              cabt::rtlsim::RtlCore rtl(desc, obj);
              rtl.run();
            } else if (v == "iss") {
              cabt::iss::Iss iss(desc, obj);
              iss.run();
            } else {
              cabt::xlat::TranslateOptions o;
              o.level = v == "xlat_l0"
                            ? cabt::xlat::DetailLevel::kFunctional
                            : cabt::xlat::DetailLevel::kICache;
              const auto img = cabt::xlat::translate(desc, obj, o);
              cabt::platform::EmulationPlatform plat(desc, img.image);
              plat.run();
            }
          }
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
