// The accuracy/speed trade-off (paper section 3.2): translate one
// workload at all four detail levels and show what each level costs and
// what it buys - the table the paper's "several detail levels of code
// execution" design revolves around.
//
// Usage: detail_levels [workload]   (default: sieve)
#include <cstdio>
#include <string>

#include "iss/iss.h"
#include "platform/platform.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

int main(int argc, char** argv) {
  using namespace cabt;
  const std::string name = argc > 1 ? argv[1] : "sieve";

  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& w = workloads::get(name);
  const elf::Object object = workloads::assemble(w);

  iss::Iss reference(desc, object);
  reference.run();
  const uint64_t measured = reference.stats().cycles;
  const uint64_t instrs = reference.stats().instructions;
  std::printf("workload %s: %llu instructions, %llu cycles on the "
              "reference board (%.2f MIPS at 48 MHz)\n\n",
              name.c_str(), static_cast<unsigned long long>(instrs),
              static_cast<unsigned long long>(measured),
              static_cast<double>(instrs) /
                  (static_cast<double>(measured) / 48e6) / 1e6);

  std::printf("%-16s %12s %10s %12s %12s %10s %9s\n", "detail level",
              "vliw cycles", "cpi", "mips@200MHz", "generated", "deviation",
              "code B");
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    xlat::TranslateOptions options;
    options.level = level;
    const xlat::TranslationResult t = xlat::translate(desc, object, options);
    platform::EmulationPlatform plat(desc, t.image);
    const platform::RunResult run = plat.run();

    const double cpi = static_cast<double>(run.vliw_cycles) /
                       static_cast<double>(instrs);
    const double mips = static_cast<double>(instrs) /
                        (static_cast<double>(run.vliw_cycles) / 200e6) /
                        1e6;
    char deviation[32];
    if (level == xlat::DetailLevel::kFunctional) {
      std::snprintf(deviation, sizeof(deviation), "n/a");
    } else {
      std::snprintf(deviation, sizeof(deviation), "%.2f%%",
                    100.0 *
                        (static_cast<double>(measured) -
                         static_cast<double>(run.generated_cycles)) /
                        static_cast<double>(measured));
    }
    std::printf("%-16s %12llu %10.2f %12.1f %12llu %10s %9llu\n",
                xlat::detailLevelName(level),
                static_cast<unsigned long long>(run.vliw_cycles), cpi, mips,
                static_cast<unsigned long long>(run.generated_cycles),
                deviation,
                static_cast<unsigned long long>(t.stats.code_bytes));
  }
  std::printf("\n(deviation = how far the generated SoC cycle stream falls "
              "short of the board's measured cycles; the icache level is "
              "exact by construction)\n");
  return 0;
}
