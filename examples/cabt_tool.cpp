// Command-line driver for the whole toolchain: assemble a TRC32 source
// file, run it on the reference board, translate it at a chosen detail
// level, execute it on the emulation platform and report accuracy.
//
// Usage:
//   cabt_tool program.s [--level=functional|static|branch|cache]
//                       [--arch=description.xml] [--dump] [--rate=N]
//
// --dump prints the translated VLIW code as a packet listing. --rate=N
// sets the generation rate, N VLIW cycles per generated SoC cycle (a
// whole number, default 1).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strutil.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "trc/assembler.h"
#include "xlat/translator.h"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw cabt::Error("cannot open '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

cabt::xlat::DetailLevel parseLevel(const std::string& name) {
  using cabt::xlat::DetailLevel;
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
  throw cabt::Error("unknown detail level '" + name +
                    "' (functional|static|branch|cache)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cabt;
  try {
    std::string source_path;
    xlat::TranslateOptions options;
    options.level = xlat::DetailLevel::kICache;
    platform::PlatformConfig config;
    bool dump = false;
    std::string arch_xml;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--level=", 0) == 0) {
        options.level = parseLevel(arg.substr(8));
      } else if (arg.rfind("--arch=", 0) == 0) {
        arch_xml = readFile(arg.substr(7));
      } else if (arg.rfind("--rate=", 0) == 0) {
        config.vliw_cycles_per_soc_cycle = static_cast<unsigned>(
            parseUnsigned(arg.substr(7), "--rate", UINT32_MAX));
      } else if (arg == "--dump") {
        dump = true;
      } else if (!arg.empty() && arg[0] != '-') {
        source_path = arg;
      } else {
        throw Error("unknown option '" + arg + "'");
      }
    }
    if (source_path.empty()) {
      std::fprintf(stderr,
                   "usage: %s program.s [--level=...] [--arch=desc.xml] "
                   "[--rate=N] [--dump]\n",
                   argv[0]);
      return 2;
    }

    const arch::ArchDescription desc =
        arch_xml.empty() ? arch::ArchDescription::defaultTc10gp()
                         : arch::parseArchXml(arch_xml);
    const elf::Object object = trc::assemble(readFile(source_path));

    iss::Iss reference(desc, object);
    const iss::StopReason stop = reference.run();
    if (stop != iss::StopReason::kHalted) {
      throw Error("reference run did not halt");
    }
    std::printf("reference   : %llu instructions, %llu cycles "
                "(%llu blocks, %llu icache misses)\n",
                static_cast<unsigned long long>(
                    reference.stats().instructions),
                static_cast<unsigned long long>(reference.stats().cycles),
                static_cast<unsigned long long>(reference.stats().blocks),
                static_cast<unsigned long long>(
                    reference.stats().icache_misses));

    const xlat::TranslationResult t = xlat::translate(desc, object, options);
    std::printf("translation : level=%s, %llu blocks, %llu cabs (%llu "
                "elided), %llu machine ops in %llu packets (%llu bytes)\n",
                xlat::detailLevelName(options.level),
                static_cast<unsigned long long>(t.stats.blocks),
                static_cast<unsigned long long>(t.stats.cabs),
                static_cast<unsigned long long>(t.stats.cab_lookups_elided),
                static_cast<unsigned long long>(t.stats.machine_ops),
                static_cast<unsigned long long>(t.stats.packets),
                static_cast<unsigned long long>(t.stats.code_bytes));

    platform::EmulationPlatform plat(desc, t.image, config);
    if (dump) {
      std::printf("\n--- translated VLIW code ---\n");
      for (const vliw::Packet& p : plat.sim().packets()) {
        std::printf("%08x:", p.addr);
        for (const vliw::MachineOp& op : p.ops) {
          std::printf("  %s", op.toString().c_str());
        }
        std::printf("\n");
      }
      std::printf("----------------------------\n\n");
    }
    const platform::RunResult run = plat.run();
    if (run.state != vliw::RunState::kHalted) {
      throw Error("translated run did not halt");
    }
    std::printf("emulation   : %llu VLIW cycles (%llu sync stalls), "
                "%llu generated SoC cycles, %llu correction cycles\n",
                static_cast<unsigned long long>(run.vliw_cycles),
                static_cast<unsigned long long>(run.sync_stall_cycles),
                static_cast<unsigned long long>(run.generated_cycles),
                static_cast<unsigned long long>(run.correction_cycles));

    const std::string diff =
        platform::compareFinalState(desc, reference, plat, object);
    std::printf("functional  : %s\n",
                diff.empty() ? "state matches the reference"
                             : ("MISMATCH: " + diff).c_str());
    if (options.level != xlat::DetailLevel::kFunctional) {
      const double dev =
          100.0 *
          (static_cast<double>(reference.stats().cycles) -
           static_cast<double>(run.generated_cycles)) /
          static_cast<double>(reference.stats().cycles);
      std::printf("accuracy    : generated %llu vs measured %llu "
                  "(deviation %.2f%%)\n",
                  static_cast<unsigned long long>(run.generated_cycles),
                  static_cast<unsigned long long>(reference.stats().cycles),
                  dev);
    }
    return diff.empty() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
