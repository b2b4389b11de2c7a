// Pins the translated side: for every paper program at every detail
// level, the translation's shape (blocks, cache analysis blocks, elided
// lookups, packets, code bytes, an FNV-1a of the emitted .text) and the
// V6X platform run (machine cycles, sync stalls, generated cycles) must
// equal the checked-in table tests/translation_pin.txt, row for row.
//
// A refactor of the translator or of the shared block layer that keeps
// the generated code keeps this table; a change that means to move the
// code re-pins it with the table this test prints on a mismatch.
//
// The table resolves through CABT_SOURCE_DIR (a compile definition), so
// the test runs from any build directory.
#include <gtest/gtest.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/serial.h"
#include "platform/platform.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt {
namespace {

#ifndef CABT_SOURCE_DIR
#error "translation_pin_test needs -DCABT_SOURCE_DIR=\"...\""
#endif

constexpr const char* kHeader =
    "# program level blocks cabs elided packets code_bytes text_fnv "
    "v6x_cycles sync_stalls generated\n";

std::string readPinned() {
  std::ifstream in(std::string(CABT_SOURCE_DIR) +
                   "/tests/translation_pin.txt");
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string actualTable() {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  std::ostringstream out;
  out << kHeader;
  for (const workloads::Workload& w : workloads::all()) {
    const elf::Object obj = workloads::assemble(w);
    for (const xlat::DetailLevel level : xlat::kDetailLevels) {
      xlat::TranslateOptions opts;
      opts.level = level;
      const xlat::TranslationResult tr = xlat::translate(desc, obj, opts);
      const xlat::TranslationStats& st = tr.stats;
      platform::EmulationPlatform plat(desc, tr.image);
      const platform::RunResult run = plat.run();
      EXPECT_EQ(run.state, vliw::RunState::kHalted)
          << w.name << " at " << xlat::detailLevelName(level);
      out << w.name << ' ' << xlat::detailLevelName(level) << ' '
          << st.blocks << ' ' << st.cabs << ' ' << st.cab_lookups_elided
          << ' ' << st.packets << ' ' << st.code_bytes << ' ' << std::hex
          << serial::fnv1a(tr.image.findSection(".text")->data) << std::dec
          << ' ' << run.vliw_cycles << ' ' << run.sync_stall_cycles << ' '
          << run.generated_cycles << '\n';
    }
  }
  return out.str();
}

TEST(TranslationPin, PaperProgramsAtEveryLevel) {
  const std::string pinned = readPinned();  // "" when unreadable
  const std::string actual = actualTable();
  if (actual != pinned) {
    std::cout << "actual table:\n" << actual;
  }
  EXPECT_EQ(actual, pinned);
}

}  // namespace
}  // namespace cabt
