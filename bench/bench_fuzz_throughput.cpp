// Fuzzing-farm throughput: snapshot-fork vs replay-from-reset
// (DESIGN.md section 13).
//
// The farm's speed claim is that mutated-state candidates are cheap
// because the oracle restores a warmed snapshot at the fork cycle
// instead of replaying the board from reset. This harness measures it
// twice:
//
//   * micro: host time to *reach* the fork cycle — cold board.runTo()
//     vs snap::restore() into a fresh board (identical digests
//     asserted);
//   * end-to-end: oracle executions per second over a batch of
//     state-only mutants of one corpus entry, fork+cache vs reset.
//
// The fork path must win both (CABT_CHECK), and the record lands in
// BENCH_fuzz_throughput.json with execs/sec per strategy so the perf
// trajectory is tracked across PRs.
#include <chrono>

#include "bench_common.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"

namespace cabt::bench {
namespace {

struct Setup {
  fuzz::SeedCase base;           // fork/horizon stamped
  std::vector<fuzz::SeedCase> mutants;  // state-only mutants of base
  uint64_t ref_cycles = 0;
};

/// A long-running loop (tens of kilocycles): generator programs finish
/// in a few hundred cycles, far too short for the fork point to matter.
std::string longProgram(int iterations) {
  std::string p;
  p += "_start: movha a0, hi(buf)\n";
  p += "        lea a0, a0, lo(buf)\n";
  p += "        movi d0, 3\n";
  p += "        movi d1, 5\n";
  p += "        movi d10, " + std::to_string(iterations) + "\n";
  p += "l0:\n";
  p += "        add d0, d0, d1\n";
  p += "        mul d1, d0, d0\n";
  p += "        stw d0, [a0]16\n";
  p += "        ldw d2, [a0]16\n";
  p += "        xor d1, d1, d2\n";
  p += "        addi16 d10, -1\n";
  p += "        jnz16 d10, l0\n";
  p += "        add d9, d9, d0\n";
  p += "        add d9, d9, d1\n";
  p += "        halt\n";
  p += "        .bss\nbuf:    .space 256\n";
  return p;
}

Setup makeSetup(size_t num_mutants) {
  Setup s;
  s.base.programs.push_back(longProgram(4000));
  s.base.quantum = 256;

  // Clean-run length from the oracle's reference configuration.
  fuzz::OracleOptions probe;
  probe.three_way = false;
  const fuzz::OracleResult r =
      fuzz::runOracle(s.base, probe, nullptr, nullptr);
  if (!r.valid || !r.ok) {
    throw Error("fuzz-throughput base case is not clean: " + r.mismatch);
  }
  s.ref_cycles = r.ref_cycles;
  s.base.horizon = r.ref_cycles;
  s.base.fork_cycle = r.ref_cycles / 2;

  // State-only mutants: same programs (so the snapshot cache key is
  // shared), different mid-run fault specs.
  fuzz::Mutator mutator(/*seed=*/11);
  while (s.mutants.size() < num_mutants) {
    const std::optional<fuzz::SeedCase> m = mutator.mutate(s.base);
    if (!m.has_value() || m->programs != s.base.programs ||
        m->faults.empty()) {
      continue;  // keep only state-only mutants
    }
    s.mutants.push_back(*m);
  }
  return s;
}

/// Host seconds to reach the fork cycle, best of `repeats`.
template <typename Fn>
double bestOf(int repeats, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Batch {
  uint64_t execs = 0;
  double seconds = 0;
  [[nodiscard]] double execsPerSec() const {
    return static_cast<double>(execs) / seconds;
  }
};

Batch runBatch(const Setup& s, bool forks) {
  Batch out;
  fuzz::SnapshotCache cache;
  fuzz::OracleOptions opts;
  opts.three_way = false;  // faulted cases never take the extras anyway
  const auto t0 = std::chrono::steady_clock::now();
  for (const fuzz::SeedCase& m : s.mutants) {
    fuzz::SeedCase c = m;
    if (!forks) {
      c.fork_cycle = 0;
    }
    const fuzz::OracleResult r =
        fuzz::runOracle(c, opts, forks ? &cache : nullptr, nullptr);
    if (!r.valid) {
      throw Error("fuzz-throughput mutant went invalid");
    }
    out.execs += r.executions;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace
}  // namespace cabt::bench

int main(int argc, char** argv) {
  using namespace cabt::bench;
  printHeader("Fuzzing-farm snapshot-fork throughput",
              "the farm speed claim, DESIGN.md section 13");
  const Setup setup = makeSetup(/*num_mutants=*/6);
  std::printf("base case: ref_cycles=%llu fork=%llu mutants=%zu\n",
              static_cast<unsigned long long>(setup.ref_cycles),
              static_cast<unsigned long long>(setup.base.fork_cycle),
              setup.mutants.size());

  // ---- micro: reach the fork cycle cold vs restore --------------------
  const cabt::arch::ArchDescription desc = defaultArch();
  const cabt::elf::Object image = cabt::trc::assemble(setup.base.programs[0]);
  const std::vector<const cabt::elf::Object*> ptrs = {&image};
  cabt::platform::BoardConfig cfg;
  cfg.iss =
      cabt::platform::issConfigFor(cabt::xlat::DetailLevel::kICache);
  cfg.iss.trace_threshold = 2;
  cfg.iss.threaded_threshold = 2;
  cfg.quantum = setup.base.quantum;

  cabt::platform::ReferenceBoard warm(desc, ptrs, cfg);
  warm.runTo(setup.base.fork_cycle);
  const std::vector<uint8_t> snapshot = cabt::snap::save(warm);
  const uint64_t warm_digest = cabt::snap::digest(warm);

  uint64_t cold_digest = 0;
  const double cold_s = bestOf(5, [&] {
    cabt::platform::ReferenceBoard b(desc, ptrs, cfg);
    b.runTo(setup.base.fork_cycle);
    cold_digest = cabt::snap::digest(b);
  });
  uint64_t fork_digest = 0;
  const double fork_s = bestOf(5, [&] {
    cabt::platform::ReferenceBoard b(desc, ptrs, cfg);
    cabt::snap::restore(b, snapshot);
    fork_digest = cabt::snap::digest(b);
  });
  CABT_CHECK(cold_digest == warm_digest && fork_digest == warm_digest,
             "fork and cold boards disagree at the fork cycle");
  CABT_CHECK(fork_s < cold_s,
             "snapshot restore ("
                 << fork_s << "s) must reach the mutation cycle faster "
                 << "than replay from reset (" << cold_s << "s)");
  std::printf("reach fork cycle %llu: cold %s, restore %s (%.2fx)\n",
              static_cast<unsigned long long>(setup.base.fork_cycle),
              humanTime(cold_s).c_str(), humanTime(fork_s).c_str(),
              cold_s / fork_s);

  // ---- end-to-end: oracle batch, reset vs fork+cache ------------------
  const Batch reset = runBatch(setup, /*forks=*/false);
  const Batch fork = runBatch(setup, /*forks=*/true);
  CABT_CHECK(fork.seconds < reset.seconds,
             "forked oracle batch (" << fork.seconds
                                     << "s) must beat replay-from-reset ("
                                     << reset.seconds << "s)");
  std::printf("oracle batch (%zu mutants): reset %llu execs in %s "
              "(%.1f execs/s), fork %llu execs in %s (%.1f execs/s), "
              "speedup %.2fx\n",
              setup.mutants.size(),
              static_cast<unsigned long long>(reset.execs),
              humanTime(reset.seconds).c_str(), reset.execsPerSec(),
              static_cast<unsigned long long>(fork.execs),
              humanTime(fork.seconds).c_str(), fork.execsPerSec(),
              reset.seconds / fork.seconds);

  // JsonReport's host_mips column carries execs/sec here (the variant
  // names say so); cycles carries the modeled fork cycle.
  JsonReport report("fuzz_throughput");
  report.add("fuzz_batch", "replay_reset_execs_per_sec",
             setup.ref_cycles, reset.execsPerSec());
  report.add("fuzz_batch", "snapshot_fork_execs_per_sec",
             setup.ref_cycles, fork.execsPerSec());
  report.add("fuzz_reach_fork", "cold_per_sec", setup.base.fork_cycle,
             1.0 / cold_s);
  report.add("fuzz_reach_fork", "restore_per_sec", setup.base.fork_cycle,
             1.0 / fork_s);
  report.write();

  benchmark::Initialize(&argc, argv);
  for (const bool forks : {false, true}) {
    benchmark::RegisterBenchmark(
        forks ? "fuzz_throughput/fork" : "fuzz_throughput/reset",
        [&setup, forks](benchmark::State& state) {
          Batch b;
          for (auto _ : state) {
            b = runBatch(setup, forks);
          }
          state.counters["execs_per_sec"] = b.execsPerSec();
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
