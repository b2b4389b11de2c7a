// Deterministic structured TRC32 program generator — the seed source of
// the differential fuzzing farm (DESIGN.md section 13) and of the
// random-program property tests.
//
// Extracted from tests/random_program_test.cpp so the generator has
// exactly one definition: the property tests, the farm's corpus
// bootstrap and the fuzz_tool `gen` command all consume this library.
// Generation is a pure function of GeneratorConfig — identical configs
// produce identical source text, which is what makes every failure
// reproducible from its logged (seed, config) line alone.
#pragma once

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

namespace cabt::fuzz {

struct GeneratorConfig {
  uint32_t seed = 1;
  /// Additionally talk to the reference board's shared peripherals
  /// (scratch registers and the inter-core mailbox) between private
  /// compute sections — the workload shape of the multi-core
  /// scenarios. Programs with shared traffic need a board
  /// (the standalone ISS has no bus).
  bool shared_traffic = false;
};

/// One-line human-readable form ("seed=7 shared_traffic=1"), printed by
/// failing tests so a log line reproduces the exact program.
std::string describe(const GeneratorConfig& config);

/// Deterministic structured program generator: straight-line arithmetic,
/// bounded loops (counters d10..d12), memory traffic against a private
/// 256-byte buffer, calls, mixed 16/32-bit encodings, and (with
/// shared_traffic) scratch/mailbox chatter through a5. Every program
/// folds its state into d9 and halts.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint32_t seed, bool shared_traffic = false)
      : ProgramGenerator(GeneratorConfig{seed, shared_traffic}) {}
  explicit ProgramGenerator(const GeneratorConfig& config)
      : config_(config), rng_(config.seed) {}

  std::string generate();

  [[nodiscard]] const GeneratorConfig& config() const { return config_; }

 private:
  int smallInt() { return static_cast<int>(rng_() % 2001) - 1000; }
  int reg() { return static_cast<int>(rng_() % 8); }  // d0..d7

  void emitStraightLine();
  void emitLoop(int id);
  void emitMemoryTraffic(int id);
  void emitCall(int id);
  void emitSharedTraffic();

  GeneratorConfig config_;
  std::mt19937 rng_;
  std::ostringstream out_;
  std::ostringstream callees_;
};

}  // namespace cabt::fuzz
