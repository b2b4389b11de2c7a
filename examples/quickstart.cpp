// Quickstart: the complete flow in one page.
//
//   1. Assemble a TRC32 program (the "object code" the paper's compiler
//      consumes).
//   2. Run it on the reference ISS (the "evaluation board") for ground
//      truth: instruction count, cycle count, final state.
//   3. Translate it cycle-accurately to the V6X VLIW.
//   4. Run the translated image on the emulation platform (VLIW +
//      synchronization device) and compare.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "iss/iss.h"
#include "platform/platform.h"
#include "trc/assembler.h"
#include "xlat/translator.h"

int main() {
  using namespace cabt;

  // A small program: sum of squares 1..20, stored to 'result'.
  const char* source = R"(
_start: movi d0, 20          ; n
        movi d1, 0           ; sum
loop:   mul d2, d0, d0
        add d1, d1, d2
        addi16 d0, -1
        jnz16 d0, loop
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d1, [a1]0
        halt
        .data
result: .word 0
)";

  // The source processor description (pipelines, branch model, icache,
  // memory map) - normally loaded from XML, here the built-in default.
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const elf::Object object = trc::assemble(source);

  // Ground truth on the reference board.
  iss::Iss reference(desc, object);
  reference.run();
  std::printf("reference board : %llu instructions, %llu cycles, "
              "result = %u\n",
              static_cast<unsigned long long>(
                  reference.stats().instructions),
              static_cast<unsigned long long>(reference.stats().cycles),
              reference.memory().read32(
                  object.findSymbol("result")->value));

  // Cycle-accurate binary translation at the highest detail level.
  xlat::TranslateOptions options;
  options.level = xlat::DetailLevel::kICache;
  const xlat::TranslationResult translation =
      xlat::translate(desc, object, options);
  std::printf("translation     : %llu blocks, %llu cache analysis blocks "
              "(%llu proven MRU hits, no lookup emitted), %llu bytes of "
              "VLIW code\n",
              static_cast<unsigned long long>(translation.stats.blocks),
              static_cast<unsigned long long>(translation.stats.cabs),
              static_cast<unsigned long long>(
                  translation.stats.cab_lookups_elided),
              static_cast<unsigned long long>(translation.stats.code_bytes));

  // Execute on the emulation platform.
  platform::EmulationPlatform plat(desc, translation.image);
  const platform::RunResult run = plat.run();
  const MemRegion* ram = desc.memory_map.findNamed("ram");
  const uint32_t result_addr =
      ram->remap(object.findSymbol("result")->value);
  std::printf("emulation       : %llu VLIW cycles, %llu generated SoC "
              "cycles, result = %u\n",
              static_cast<unsigned long long>(run.vliw_cycles),
              static_cast<unsigned long long>(run.generated_cycles),
              plat.sim().memory().read32(result_addr));

  const bool exact =
      run.generated_cycles == reference.stats().cycles;
  std::printf("cycle accuracy  : generated %llu vs measured %llu -> %s\n",
              static_cast<unsigned long long>(run.generated_cycles),
              static_cast<unsigned long long>(reference.stats().cycles),
              exact ? "exact" : "DIVERGED");
  return exact ? 0 : 1;
}
