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

#include <array>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "sim/kernel.h"
#include "soc/bus.h"
#include "soc/interrupts.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

// ---- kernel-level behaviour ------------------------------------------

class StampingClock : public sim::ClockedProcess {
 public:
  StampingClock(const char* name, sim::Cycle period, int limit,
                std::vector<std::string>* trace)
      : sim::ClockedProcess(name, period), limit_(limit), trace_(trace) {}
  void tick(sim::Kernel& kernel) override {
    trace_->push_back(name() + "@" + std::to_string(kernel.now()));
    if (--limit_ == 0) {
      stop();
    }
  }

 private:
  int limit_;
  std::vector<std::string>* trace_;
};

// Processes that do not opt into parallel prefixes dispatch in the
// identical (time, insertion) order under both kernels.
TEST(ParallelKernel, DispatchOrderMatchesSequentialKernel) {
  std::vector<std::string> sequential;
  std::vector<std::string> parallel;
  for (std::vector<std::string>* trace : {&sequential, &parallel}) {
    sim::Kernel k(32);
    if (trace == &parallel) {
      k.setParallel({true, 2});
    }
    StampingClock a("a", 7, 40, trace);
    StampingClock b("b", 13, 20, trace);
    StampingClock c("c", 32, 9, trace);
    k.addProcess(&a, 7);
    k.addProcess(&b, 13);
    k.addProcess(&c, 32);
    k.schedule(100, [trace] { trace->push_back("cb@100"); });
    k.run();
  }
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelKernel, RunLimitLeavesLaterEventsQueued) {
  sim::Kernel k(16);
  k.setParallel({true, 1});
  int fired = 0;
  k.schedule(10, [&] { ++fired; });
  k.schedule(20, [&] { ++fired; });
  k.run(15);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(k.idle());
  k.run();
  EXPECT_EQ(fired, 2);
}

// ---- the differential grid -------------------------------------------

struct CoreSnapshot {
  iss::IssStats stats;
  iss::StopReason stop = iss::StopReason::kRunning;
  uint32_t pc = 0;
  std::array<uint32_t, 16> d{};
  std::array<uint32_t, 16> a{};
  uint32_t checksum = 0;
  std::vector<uint64_t> irq_times;
  uint32_t intc_pending = 0;
};

struct BoardSnapshot {
  std::vector<CoreSnapshot> cores;
  uint64_t bus_cycle = 0;
  uint64_t timer_expiries = 0;
  uint64_t mailbox_pushes = 0;
  uint64_t mailbox_dropped = 0;
  size_t mailbox_depth = 0;
  std::array<uint32_t, 16> scratch{};
  std::vector<soc::Transaction> bus_log;
  uint64_t kernel_events = 0;
  uint64_t prefixes = 0;  ///< not compared: parallel-utilisation signal
};

struct GridBoard {
  std::vector<const workloads::Workload*> programs;
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> image_ptrs;
  std::vector<uint32_t> extra_leaders;
};

/// The N-core board of the grid: the interrupt-driven tick counter
/// alone (N=1), the producer/consumer pair (N=2), and the pair plus
/// compute-heavy workers with rare shared beacons (N=4, 8).
GridBoard makeBoard(size_t cores) {
  GridBoard b;
  if (cores == 1) {
    b.programs = {&workloads::get("irq_ticks")};
  } else {
    b.programs = {&workloads::get("mc_producer"),
                  &workloads::get("mc_consumer")};
    while (b.programs.size() < cores) {
      b.programs.push_back(&workloads::get("mc_worker"));
    }
  }
  for (const workloads::Workload* w : b.programs) {
    b.images.push_back(workloads::assemble(*w));
    if (!w->irq_handler.empty()) {
      b.extra_leaders.push_back(
          platform::symbolAddr(b.images.back(), w->irq_handler));
    }
  }
  for (const elf::Object& obj : b.images) {
    b.image_ptrs.push_back(&obj);
  }
  return b;
}

BoardSnapshot runBoard(const GridBoard& grid, xlat::DetailLevel level,
                       sim::Cycle quantum, bool use_block_cache,
                       bool parallel) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(level);
  cfg.iss.use_block_cache = use_block_cache;
  cfg.iss.extra_leaders = grid.extra_leaders;
  // Cap the long-running workers so the grid stays fast; the cap is
  // architectural state (instruction counts are private), so capped
  // runs still compare bit-exactly.
  cfg.iss.max_instructions = 30'000;
  cfg.quantum = quantum;
  cfg.parallel.enabled = parallel;
  // Force a real worker pool even on single-core hosts (the default
  // would run prefixes inline there), so the grid — and the TSan CI job
  // on top of it — always exercises genuine cross-thread execution.
  cfg.parallel.workers = 2;
  platform::ReferenceBoard board(desc, grid.image_ptrs, cfg);
  board.run();
  BoardSnapshot s;
  for (size_t i = 0; i < board.numCores(); ++i) {
    CoreSnapshot c;
    c.stats = board.core(i).stats();
    c.stop = board.core(i).stopReason();
    c.pc = board.core(i).pc();
    for (int r = 0; r < 16; ++r) {
      c.d[static_cast<size_t>(r)] = board.core(i).d(r);
      c.a[static_cast<size_t>(r)] = board.core(i).a(r);
    }
    c.checksum =
        workloads::readChecksum(grid.images[i], board.core(i).memory());
    c.irq_times = board.intc(i).deliveryTimes();
    c.intc_pending = board.intc(i).pending();
    s.cores.push_back(std::move(c));
  }
  s.bus_cycle = board.board().bus.socCycle();
  s.timer_expiries = board.ptimer().expiries();
  s.mailbox_pushes = board.mailbox().pushes();
  s.mailbox_dropped = board.mailbox().dropped();
  s.mailbox_depth = board.mailbox().depth();
  for (size_t r = 0; r < 16; ++r) {
    s.scratch[r] = board.board().scratch.reg(r);
  }
  s.bus_log = board.board().bus.log();
  s.kernel_events = board.kernel().eventsDispatched();
  s.prefixes = board.kernel().parallelPrefixes();
  return s;
}

void expectIdentical(const BoardSnapshot& par, const BoardSnapshot& seq) {
  ASSERT_EQ(par.cores.size(), seq.cores.size());
  for (size_t i = 0; i < par.cores.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    const CoreSnapshot& p = par.cores[i];
    const CoreSnapshot& q = seq.cores[i];
    EXPECT_EQ(p.stats.instructions, q.stats.instructions);
    EXPECT_EQ(p.stats.cycles, q.stats.cycles);
    EXPECT_EQ(p.stats.pipeline_cycles, q.stats.pipeline_cycles);
    EXPECT_EQ(p.stats.branch_extra, q.stats.branch_extra);
    EXPECT_EQ(p.stats.cache_penalty, q.stats.cache_penalty);
    EXPECT_EQ(p.stats.blocks, q.stats.blocks);
    EXPECT_EQ(p.stats.icache_accesses, q.stats.icache_accesses);
    EXPECT_EQ(p.stats.icache_misses, q.stats.icache_misses);
    EXPECT_EQ(p.stats.cond_branches, q.stats.cond_branches);
    EXPECT_EQ(p.stats.cond_taken, q.stats.cond_taken);
    EXPECT_EQ(p.stats.mispredicts, q.stats.mispredicts);
    EXPECT_EQ(p.stats.io_reads, q.stats.io_reads);
    EXPECT_EQ(p.stats.io_writes, q.stats.io_writes);
    EXPECT_EQ(p.stats.irqs_taken, q.stats.irqs_taken);
    EXPECT_EQ(p.stats.irq_entry_cycles, q.stats.irq_entry_cycles);
    EXPECT_EQ(p.stop, q.stop);
    EXPECT_EQ(p.pc, q.pc);
    EXPECT_EQ(p.d, q.d);
    EXPECT_EQ(p.a, q.a);
    EXPECT_EQ(p.checksum, q.checksum);
    EXPECT_EQ(p.irq_times, q.irq_times) << "IRQ delivery timestamps";
    EXPECT_EQ(p.intc_pending, q.intc_pending);
  }
  EXPECT_EQ(par.bus_cycle, seq.bus_cycle);
  EXPECT_EQ(par.timer_expiries, seq.timer_expiries);
  EXPECT_EQ(par.mailbox_pushes, seq.mailbox_pushes);
  EXPECT_EQ(par.mailbox_dropped, seq.mailbox_dropped);
  EXPECT_EQ(par.mailbox_depth, seq.mailbox_depth);
  EXPECT_EQ(par.scratch, seq.scratch);
  EXPECT_EQ(par.kernel_events, seq.kernel_events)
      << "kernel dispatch sequence diverged";
  // The strongest statement: the shared bus saw the same transactions,
  // with the same payloads, at the same SoC cycles, in the same order.
  ASSERT_EQ(par.bus_log.size(), seq.bus_log.size());
  for (size_t i = 0; i < par.bus_log.size(); ++i) {
    const soc::Transaction& a = par.bus_log[i];
    const soc::Transaction& b = seq.bus_log[i];
    EXPECT_EQ(a.soc_cycle, b.soc_cycle) << "transaction " << i;
    EXPECT_EQ(a.addr, b.addr) << "transaction " << i;
    EXPECT_EQ(a.value, b.value) << "transaction " << i;
    EXPECT_EQ(a.size, b.size) << "transaction " << i;
    EXPECT_EQ(a.is_write, b.is_write) << "transaction " << i;
  }
}

struct GridParam {
  size_t cores;
  sim::Cycle quantum;
};

class ParallelGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ParallelGrid, BitIdenticalToSequentialKernel) {
  const auto [cores, quantum] = GetParam();
  const GridBoard board = makeBoard(cores);
  uint64_t total_prefixes = 0;
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
        xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
    // Both engines: the threaded engine's private slices run its
    // Bail-instrumented chained tier, step() takes the per-instruction
    // bail path.
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(std::string(xlat::detailLevelName(level)) +
                   (threaded ? ", threaded" : ", step"));
      const BoardSnapshot seq =
          runBoard(board, level, quantum, threaded, false);
      const BoardSnapshot par =
          runBoard(board, level, quantum, threaded, true);
      expectIdentical(par, seq);
      EXPECT_EQ(seq.prefixes, 0u);
      total_prefixes += par.prefixes;
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
  const GridBoard board = makeBoard(4);
  const BoardSnapshot par =
      runBoard(board, xlat::DetailLevel::kICache, 4096, true, true);
  EXPECT_GT(par.prefixes, 0u);
  uint64_t slices = 0;
  uint64_t bails = 0;
  for (const CoreSnapshot& c : par.cores) {
    slices += c.stats.private_slices;
    bails += c.stats.private_bails;
  }
  EXPECT_GT(slices, 0u);
  EXPECT_GT(bails, 0u);  // the beacon writes force mid-slice bails
  EXPECT_LE(bails, slices);
}

}  // namespace
}  // namespace cabt
