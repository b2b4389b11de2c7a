// The three-way differential oracle of the fuzzing farm (DESIGN.md
// section 13).
//
// One candidate SeedCase is executed across the full reference-board
// grid — detail level {functional, static, branch-predict, icache} ×
// ISS engine {step, threaded}, eight boards — and, for
// single-program cases without shared traffic or faults, additionally
// against the RT-level model and the translated platform at every
// detail level. Compared observables:
//
//   * within one detail level: the whole snap::Observation
//     (snap/observe.h) — per-core stop, registers, pc, architectural
//     stats and interrupt record, the full bus transaction log, device
//     counters, scratch registers, kernel dispatch count and the rolling
//     state digest — bit-identical across the two engines
//     (snap::firstMismatch);
//   * across detail levels (skipped when faults are armed or when
//     multiple cores share traffic — cycle-keyed faults and shared-bus
//     interleavings legitimately depend on the timing model): the
//     functional observables (snap::firstFunctionalMismatch:
//     instructions, io counts, registers, pc);
//   * ISS vs rtlsim: exact cycle count and data registers;
//   * ISS vs translated platform: final architectural state at every
//     level, exact generated-cycle agreement at icache, exact-minus-
//     cache-penalty at branch-predict.
//
// Every board boots from reset, with the candidate's fi:: faults armed
// before its first cycle. The reference configuration (icache level,
// threaded) runs first and gates validity: a candidate that does not
// halt there within the instruction budget is discarded as invalid,
// never reported.
#pragma once

#include <cstdint>
#include <string>

#include "core/coverage.h"
#include "fuzz/corpus.h"

namespace cabt::fuzz {

struct OracleOptions {
  /// Plants the deliberate translator timing bug
  /// (xlat::TranslateOptions::debug_skew_static_cycles) — the farm's
  /// acceptance drill: the oracle must catch it at the cycle-exact
  /// detail levels.
  bool xlat_skew = false;
  /// Per-core reference instruction budget; exceeding it in the
  /// reference configuration marks the candidate invalid (mutants that
  /// spin are discarded, not reported).
  uint64_t max_instructions = 2'000'000;
};

struct OracleResult {
  /// Reference configuration halted within budget. Invalid candidates
  /// (assembly errors, non-halting references) are not findings.
  bool valid = false;
  /// Every comparison agreed. Meaningful only when valid.
  bool ok = false;
  /// First mismatch, human-readable ("level=icache engine=step: core 0
  /// d3 0x... != 0x..."); empty when ok. The minimizer's
  /// failure signature is the text up to the first ':'.
  std::string mismatch;
  /// Engine executions this candidate cost (board grid + extras).
  uint64_t executions = 0;
  /// Clean-run length (SoC bus cycle at reference halt); the farm
  /// stamps this into corpus entries as the mutation horizon.
  uint64_t ref_cycles = 0;
};

/// Runs the full oracle. `coverage` may be null (no feedback collected)
/// — when set, the reference configuration's run records edges into it.
OracleResult runOracle(const SeedCase& c, const OracleOptions& opts,
                       core::EdgeCoverage* coverage);

}  // namespace cabt::fuzz
