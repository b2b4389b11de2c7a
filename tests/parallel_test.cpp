// Differential conformance fleet for the parallel-round kernel
// (sim::Kernel::ParallelConfig, DESIGN.md section 7).
//
// The claim under test: parallel execution is *bit-identical* to the
// sequential kernel — same cycles, register files, IRQ delivery
// timestamps, mailbox traffic and even the same bus transaction log,
// because every shared-state access still happens at its sequential
// dispatch position; only core-private quantum prefixes overlap on
// worker threads. The grid crosses board size {1,2,4,8 cores} x quantum
// {1,16,256,4096} x all four detail levels x both ISS engines (step()
// and threaded) and compares every observable the simulation has.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel_recorder.h"
#include "platform/platform.h"
#include "sim/kernel.h"
#include "snap/observe.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

// ---- kernel-level behaviour ------------------------------------------

using test::Recorder;

// Processes that do not opt into parallel prefixes dispatch in the
// identical (time, insertion) order under both kernels.
TEST(ParallelKernel, DispatchOrderMatchesSequentialKernel) {
  std::vector<std::string> sequential;
  std::vector<std::string> parallel;
  for (std::vector<std::string>* log : {&sequential, &parallel}) {
    sim::Kernel k(32);
    if (log == &parallel) {
      k.setParallel({true, 2});
    }
    Recorder a("a", 7, 40, log);
    Recorder b("b", 13, 20, log);
    Recorder c("c", 32, 9, log);
    Recorder once("once", 0, 1, log);
    k.addProcess(&a, 7);
    k.addProcess(&b, 13);
    k.addProcess(&c, 32);
    k.addProcess(&once, 100);
    k.run();
  }
  EXPECT_EQ(sequential.size(), 70u);
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelKernel, RunLimitLeavesLaterEventsQueued) {
  sim::Kernel k(16);
  k.setParallel({true, 1});
  std::vector<std::string> log;
  Recorder p("p", 10, 2, &log);
  k.addProcess(&p, 10);
  k.run(15);
  EXPECT_EQ(log, (std::vector<std::string>{"p@10"}));
  EXPECT_FALSE(k.idle());
  k.run();
  EXPECT_EQ(log, (std::vector<std::string>{"p@10", "p@20"}));
}

// ---- the differential grid -------------------------------------------

/// Runs one grid board to completion; adds the kernel's parallel-prefix
/// count (a utilisation signal, not an observable) to `prefixes`.
snap::Observation runBoard(const workloads::BoardImages& images,
                           const snap::GridPoint& point, sim::Cycle quantum,
                           uint64_t& prefixes) {
  platform::BoardConfig base;
  // Cap the long-running workers so the grid stays fast; the cap is
  // architectural state (instruction counts are private), so capped
  // runs still compare bit-exactly.
  base.iss.max_instructions = 30'000;
  base.quantum = quantum;
  // Parallel points get a real worker pool even on single-core hosts, so
  // the grid — and the TSan CI job on top of it — always exercises
  // genuine cross-thread execution.
  auto board = snap::makeBoard(images, point, base);
  board->run();
  prefixes += board->kernel().parallelPrefixes();
  return snap::observe(*board);
}

struct GridParam {
  size_t cores;
  sim::Cycle quantum;
};

class ParallelGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ParallelGrid, BitIdenticalToSequentialKernel) {
  const auto [cores, quantum] = GetParam();
  const auto images = workloads::BoardImages::family(cores);
  uint64_t total_prefixes = 0;
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    // Both engines: the threaded engine's private slices run its
    // Bail-instrumented chained tier, step() takes the per-instruction
    // bail path.
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(std::string(xlat::detailLevelName(level)) +
                   (threaded ? ", threaded" : ", step"));
      uint64_t seq_prefixes = 0;
      const snap::Observation seq =
          runBoard(images, {level, threaded, false}, quantum, seq_prefixes);
      const snap::Observation par =
          runBoard(images, {level, threaded, true}, quantum, total_prefixes);
      // The strongest statement includes the bus log: the shared bus saw
      // the same transactions, with the same payloads, at the same SoC
      // cycles, in the same order.
      EXPECT_EQ(snap::firstMismatch(seq, par), "");
      EXPECT_EQ(seq_prefixes, 0u);
    }
  }
  // The comparison must not be vacuous: boards with quiescent-certified
  // cores really ran worker-thread prefixes.
  if (cores >= 2) {
    EXPECT_GT(total_prefixes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boards, ParallelGrid,
    ::testing::Values(GridParam{1, 1}, GridParam{1, 16}, GridParam{1, 256},
                      GridParam{1, 4096}, GridParam{2, 1}, GridParam{2, 16},
                      GridParam{2, 256}, GridParam{2, 4096}, GridParam{4, 1},
                      GridParam{4, 16}, GridParam{4, 256},
                      GridParam{4, 4096}, GridParam{8, 1}, GridParam{8, 16},
                      GridParam{8, 256}, GridParam{8, 4096}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return "cores" + std::to_string(info.param.cores) + "_quantum" +
             std::to_string(info.param.quantum);
    });

// Workers bail mid-quantum on their beacons; the machinery must report
// it (the bench's utilisation counters hang off these).
TEST(ParallelGrid, PrivateSlicesAndBailsAreAccounted) {
  uint64_t prefixes = 0;
  const snap::Observation par =
      runBoard(workloads::BoardImages::family(4),
               {xlat::DetailLevel::kICache, true, true}, 4096, prefixes);
  EXPECT_GT(prefixes, 0u);
  uint64_t slices = 0;
  uint64_t bails = 0;
  for (const snap::CoreObservation& c : par.cores) {
    slices += c.stats.private_slices;
    bails += c.stats.private_bails;
  }
  EXPECT_GT(slices, 0u);
  EXPECT_GT(bails, 0u);  // the beacon writes force mid-slice bails
  EXPECT_LE(bails, slices);
}

}  // namespace
}  // namespace cabt
