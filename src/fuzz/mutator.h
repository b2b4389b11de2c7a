// Seed-case mutation operators (DESIGN.md section 13).
//
// Text operators work on the assembly source at line granularity and
// only ever touch "plain" lines — label-free data/memory instructions
// over d0..d7 — so the control-flow skeleton the generator emitted
// (loop counters d10..d15, branches, calls, halt) survives every
// mutation and mutants keep terminating. State operators edit the
// fault-spec list instead: they mutate mid-run architectural state
// (registers, memory words, pending bus-error IRQs) through the fi::
// grammar, at cycles inside the case's horizon.
//
// Every product is validated before it leaves mutate(): each changed
// program must assemble (trc::assemble inside a catch) and each fault
// spec must parse. A mutant that fails validation is re-rolled a
// bounded number of times; mutate() returns nullopt when the case
// offers no applicable operator at all.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "fuzz/corpus.h"

namespace cabt::fuzz {

class Mutator {
 public:
  explicit Mutator(uint32_t seed) : rng_(seed) {}

  /// One mutated copy of `base`, or nullopt when nothing applied.
  std::optional<SeedCase> mutate(const SeedCase& base);

  /// Name of the operator the last successful mutate() applied.
  [[nodiscard]] const std::string& lastOperator() const { return last_op_; }

 private:
  using Lines = std::vector<std::string>;

  bool apply(SeedCase& c);
  bool spliceLines(Lines& lines);
  bool swapLines(Lines& lines);
  bool perturbImmediate(Lines& lines);
  bool perturbRegister(Lines& lines);
  bool reshapeLoopBound(Lines& lines);
  bool reshapeSharedTraffic(Lines& lines);
  bool mutateState(SeedCase& c);

  uint32_t pick(uint32_t n) { return rng_() % n; }
  int smallInt() { return static_cast<int>(pick(2001)) - 1000; }
  std::string makeFault(const SeedCase& c);

  std::mt19937 rng_;
  std::string last_op_;
};

}  // namespace cabt::fuzz
