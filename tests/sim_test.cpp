// Tests of the discrete-event kernel (sim/), the interrupt path
// (interrupt controller + programmable timer + mailbox) and the
// temporally decoupled multi-core reference board.
//
// The two load-bearing invariants of the design:
//   * single-initiator simulation is *exactly* quantum-invariant — the
//     quantum only slices host execution, never behaviour, because all
//     shared state advances lazily to transaction/sample timestamps;
//   * the block-dispatch engine and per-instruction stepping take every
//     interrupt at the identical cycle count (IRQ sampling happens only
//     at basic-block boundaries, which both engines share).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "platform/platform.h"
#include "sim/kernel.h"
#include "snap/observe.h"
#include "soc/interrupts.h"
#include "soc/peripherals.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

// ---- kernel ---------------------------------------------------------

/// A scripted process: logs each activation as "name@now" and re-syncs
/// itself `period` cycles later until it has run `runs` times, so a test
/// can read the kernel's dispatch order off the log.
class Recorder : public sim::Process {
 public:
  Recorder(const char* name, sim::Cycle period, int runs,
           std::vector<std::string>* log)
      : sim::Process(name), period_(period), runs_(runs), log_(log) {}

  void activate(sim::Kernel& kernel) override {
    log_->push_back(name() + "@" + std::to_string(kernel.now()));
    if (--runs_ > 0) {
      kernel.sync(this, kernel.now() + period_);
    }
  }

 private:
  sim::Cycle period_;
  int runs_;
  std::vector<std::string>* log_;
};

TEST(Kernel, DispatchesInTimeOrderWithStableTies) {
  sim::Kernel k;
  std::vector<std::string> log;
  Recorder a("a", 0, 1, &log);
  Recorder b("b", 5, 2, &log);  // re-syncs to 10 after c was queued there
  Recorder c("c", 0, 1, &log);
  k.addProcess(&a, 10);
  k.addProcess(&b, 5);
  k.addProcess(&c, 10);
  EXPECT_EQ(k.run(), 10u);
  EXPECT_EQ(log, (std::vector<std::string>{"b@5", "a@10", "c@10", "b@10"}));
  EXPECT_EQ(k.eventsDispatched(), 4u);
  EXPECT_TRUE(k.idle());
}

TEST(Kernel, RunLimitLeavesLaterEventsQueued) {
  sim::Kernel k;
  std::vector<std::string> log;
  Recorder p("p", 10, 3, &log);
  k.addProcess(&p, 10);
  EXPECT_EQ(k.run(20), 20u);  // the limit is inclusive
  EXPECT_EQ(log, (std::vector<std::string>{"p@10", "p@20"}));
  EXPECT_FALSE(k.idle());
  EXPECT_EQ(k.nextEventAt(), 30u);
  k.run();
  EXPECT_EQ(log, (std::vector<std::string>{"p@10", "p@20", "p@30"}));
  EXPECT_TRUE(k.idle());
}

// ---- interrupt-path devices -----------------------------------------

TEST(ProgrammableTimer, ExpiriesAreAPureFunctionOfTime) {
  // The same interval advanced in one jump or in ragged slices produces
  // the same expiry count and pending state — the property behind exact
  // quantum invariance.
  soc::InterruptController intc_a;
  soc::ProgrammableTimer a;
  a.setIrqTarget(&intc_a, 0);
  a.write(soc::ProgrammableTimer::kLoadOffset, 100, 4, 0);
  a.write(soc::ProgrammableTimer::kCtrlOffset, 3, 4, 0);  // enable|periodic
  a.advanceTo(0, 1005);

  soc::InterruptController intc_b;
  soc::ProgrammableTimer b;
  b.setIrqTarget(&intc_b, 0);
  b.write(soc::ProgrammableTimer::kLoadOffset, 100, 4, 0);
  b.write(soc::ProgrammableTimer::kCtrlOffset, 3, 4, 0);
  uint64_t t = 0;
  for (const uint64_t step : {1, 7, 99, 100, 101, 250, 447}) {
    b.advanceTo(t, t + step);
    t += step;
  }
  b.advanceTo(t, 1005);

  EXPECT_EQ(a.expiries(), 10u);
  EXPECT_EQ(b.expiries(), a.expiries());
  EXPECT_EQ(intc_a.pending(), intc_b.pending());
}

TEST(ProgrammableTimer, ClearingLoadWhileArmedStopsInsteadOfSpinning) {
  soc::ProgrammableTimer t;
  t.write(soc::ProgrammableTimer::kLoadOffset, 100, 4, 0);
  t.write(soc::ProgrammableTimer::kCtrlOffset, 3, 4, 0);  // enable|periodic
  t.advanceTo(0, 150);
  EXPECT_EQ(t.expiries(), 1u);
  // A reload value of 0 must stop the timer at its next expiry, not spin
  // forever on a zero period.
  t.write(soc::ProgrammableTimer::kLoadOffset, 0, 4, 150);
  t.advanceTo(150, 100000);
  EXPECT_EQ(t.expiries(), 2u);
  EXPECT_FALSE(t.enabled());
}

TEST(ProgrammableTimer, OneShotDisablesAfterExpiry) {
  soc::ProgrammableTimer t;
  t.write(soc::ProgrammableTimer::kLoadOffset, 50, 4, 0);
  t.write(soc::ProgrammableTimer::kCtrlOffset, 1, 4, 0);  // enable only
  EXPECT_EQ(t.read(soc::ProgrammableTimer::kCountOffset, 4, 20), 30u);
  t.advanceTo(0, 500);
  EXPECT_EQ(t.expiries(), 1u);
  EXPECT_FALSE(t.enabled());
}

TEST(InterruptController, TakeMaskAckEoiprotocol) {
  soc::InterruptController intc;
  intc.write(soc::InterruptController::kVectorOffset, 0x8000'0040, 4, 0);
  intc.write(soc::InterruptController::kEnableOffset, 0x1, 4, 0);
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // master disabled
  intc.write(soc::InterruptController::kCtrlOffset, 1, 4, 0);
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // nothing pending
  intc.raise(0);
  intc.raise(5);  // line 5 is not enabled
  const auto taken = intc.takeIrq(0);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, 0x8000'0040u);
  EXPECT_TRUE(intc.inService());
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // masked while in service
  intc.write(soc::InterruptController::kAckOffset, 0x1, 4, 0);
  intc.write(soc::InterruptController::kEoiOffset, 0, 4, 0);
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // line 0 acked, 5 disabled
  intc.write(soc::InterruptController::kEnableOffset, 0x21, 4, 0);
  EXPECT_TRUE(intc.takeIrq(0).has_value());  // line 5 now deliverable
}

TEST(Mailbox, FifoOrderStatusAndDoorbell) {
  soc::MailboxDevice mb;
  int rings = 0;
  mb.setDoorbell(0, [&] { ++rings; });
  EXPECT_EQ(mb.read(0x4, 4, 0), 0u);  // empty
  mb.write(0x0, 11, 4, 0);
  mb.write(0x0, 22, 4, 0);
  EXPECT_EQ(mb.read(0x4, 4, 0), 1u);  // has data, not full
  mb.write(0x0, 33, 4, 0);
  mb.write(0x0, 44, 4, 0);
  EXPECT_EQ(mb.read(0x4, 4, 0), 3u);  // has data | full
  mb.write(0x0, 55, 4, 0);            // dropped
  EXPECT_EQ(mb.dropped(), 1u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 11u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 22u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 33u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 44u);
  EXPECT_EQ(mb.read(0x4, 4, 0), 0u);
  mb.write(0x8, 0, 4, 0);  // doorbell 0
  EXPECT_EQ(rings, 1);
}

// ---- interrupt-driven execution on the reference board --------------

/// Engine variants crossed with the IRQ scenario: stepping, the stock
/// threaded engine, and the threaded engine with a trace threshold low
/// enough that the spin-wait loop forms superblocks almost immediately
/// (so interrupts routinely arrive at trace-internal boundaries and
/// redirect control off a speculated guard).
struct EngineVariant {
  const char* name;
  bool use_block_cache;
  uint32_t trace_threshold;
};

constexpr EngineVariant kEngineVariants[] = {
    {"stepping", false, 64},
    {"threaded", true, 64},
    {"threaded, hot traces", true, 2},
};

/// Runs irq_ticks to halt and checks its known checksum (164: eight
/// ticks summed by the ISR) on every run.
snap::Observation runIrqTicks(
    const EngineVariant& engine, sim::Cycle quantum,
    xlat::DetailLevel level = xlat::DetailLevel::kICache) {
  static const auto images = workloads::BoardImages::family(1);
  platform::BoardConfig base;
  base.iss.trace_threshold = engine.trace_threshold;
  base.quantum = quantum;
  const auto board =
      snap::makeBoard(images, {level, engine.use_block_cache}, base);
  EXPECT_EQ(board->run(), iss::StopReason::kHalted);
  EXPECT_EQ(workloads::readChecksum(images.image(0), board->iss().memory()),
            164u);
  return snap::observe(*board);
}

/// Behaviour equality across engines and quanta. The quantum changes how
/// many activations the kernel dispatches, never what the board does, so
/// the kernel's dispatch count is the one field left out.
void expectSameBehaviour(const snap::Observation& want,
                         snap::Observation got) {
  got.kernel_events = want.kernel_events;
  EXPECT_EQ(snap::firstMismatch(want, got), "");
}

TEST(InterruptDriven, WorkloadRetiresWithExpectedChecksum) {
  const snap::Observation r = runIrqTicks(kEngineVariants[2], 1024);
  const snap::CoreObservation& core = r.cores[0];
  EXPECT_EQ(core.d[14], 8u);
  EXPECT_EQ(core.stats.irqs_taken, 8u);
  EXPECT_EQ(core.intc_irqs_taken, 8u);
  EXPECT_GE(r.ptimer_expiries, 8u);
  EXPECT_GT(core.stats.irq_entry_cycles, 0u);
  // The spin-wait loop really did run as guarded superblocks, and
  // interrupts really did bail traces at internal boundaries.
  EXPECT_GT(core.stats.trace_dispatches, 0u);
  EXPECT_GT(core.stats.guard_bails, 0u);
}

// The step()-fallback proof: the threaded engine — hot traces included
// — and pure per-instruction execution take all 8 interrupts at
// identical cycle counts and retire identically.
TEST(InterruptDriven, BothEnginesTakeIrqsIdentically) {
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    const snap::Observation slow =
        runIrqTicks(kEngineVariants[0], 1024, level);
    for (size_t v = 1; v < std::size(kEngineVariants); ++v) {
      SCOPED_TRACE(kEngineVariants[v].name);
      EXPECT_EQ(snap::firstMismatch(
                    slow, runIrqTicks(kEngineVariants[v], 1024, level)),
                "");
    }
  }
}

// Exact temporal-decoupling invariance: with one initiator, the quantum
// slices host execution but never behaviour — final SoC cycle and all
// state are bit-identical for quantum 1, 16, 256 and 4096, with stock
// and hot trace thresholds alike (a quantum boundary may fall on a
// trace-internal block boundary and must yield there).
TEST(InterruptDriven, GeneratedCyclesAreQuantumInvariant) {
  const snap::Observation base = runIrqTicks(kEngineVariants[1], 1);
  for (const sim::Cycle quantum : {16u, 256u, 4096u}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    expectSameBehaviour(base, runIrqTicks(kEngineVariants[1], quantum));
  }
  for (const sim::Cycle quantum : {1u, 16u, 256u, 4096u}) {
    SCOPED_TRACE("hot traces, quantum " + std::to_string(quantum));
    expectSameBehaviour(base, runIrqTicks(kEngineVariants[2], quantum));
  }
  // The stepping engine is quantum-invariant too, and agrees.
  expectSameBehaviour(base, runIrqTicks(kEngineVariants[0], 4096));
}

// ---- golden-trace snapshots -----------------------------------------
//
// Committed expected values for the stock scenario workloads at one
// pinned configuration (kICache detail, quantum 1024, default engine).
// The simulation is a pure function of the architecture description, so
// these are stable across hosts and compilers; any engine change that
// shifts a cycle count, an IRQ delivery timestamp or the bus traffic
// regresses loudly here instead of silently drifting.

TEST(GoldenTrace, IrqTicks) {
  const snap::Observation r = runIrqTicks(kEngineVariants[2], 1024);
  EXPECT_EQ(r.cores[0].stats.instructions, 2126u);
  EXPECT_EQ(r.cores[0].stats.cycles, 3279u);
  EXPECT_EQ(r.cores[0].stats.irqs_taken, 8u);
  EXPECT_EQ(r.cores[0].stats.irq_entry_cycles, 48u);
  EXPECT_EQ(r.bus_cycle, 3279u);
  EXPECT_EQ(r.ptimer_expiries, 8u);
}

TEST(GoldenTrace, IrqTicksDeliveryTimestamps) {
  const snap::Observation r = runIrqTicks(kEngineVariants[1], 1024);
  const std::vector<uint64_t> expected = {447,  845,  1245, 1645,
                                          2045, 2445, 2845, 3245};
  EXPECT_EQ(r.cores[0].irq_times, expected);
  EXPECT_EQ(r.bus_log.size(), 23u);
}

TEST(GoldenTrace, ProducerConsumerPair) {
  const auto images = workloads::BoardImages::family(2);
  const elf::Object& producer = images.image(0);
  const elf::Object& consumer = images.image(1);
  const auto board = snap::makeBoard(images);
  ASSERT_EQ(board->run(), iss::StopReason::kHalted);
  EXPECT_EQ(board->core(0).stats().instructions, 3171u);
  EXPECT_EQ(board->core(0).stats().cycles, 4891u);
  EXPECT_EQ(board->core(0).stats().irqs_taken, 16u);
  EXPECT_EQ(board->core(0).stats().irq_entry_cycles, 96u);
  EXPECT_EQ(board->core(1).stats().instructions, 3275u);
  EXPECT_EQ(board->core(1).stats().cycles, 4157u);
  EXPECT_EQ(workloads::readChecksum(producer, board->core(0).memory()),
            1544u);
  EXPECT_EQ(workloads::readChecksum(consumer, board->core(1).memory()),
            1544u);
  EXPECT_EQ(board->board().bus.socCycle(), 4891u);
  EXPECT_EQ(board->ptimer().expiries(), 16u);
  EXPECT_EQ(board->mailbox().pushes(), 16u);
  EXPECT_EQ(board->board().bus.log().size(), 888u);
  std::vector<uint64_t> expected = {346};
  for (uint64_t t = 648; t <= 4848; t += 300) {
    expected.push_back(t);
  }
  EXPECT_EQ(board->intc(0).deliveryTimes(), expected);
}

TEST(GoldenTrace, McWorkerSoloRun) {
  const auto images = workloads::BoardImages::named({"mc_worker"});
  const auto board = snap::makeBoard(images);
  ASSERT_EQ(board->run(), iss::StopReason::kHalted);
  EXPECT_EQ(board->core(0).stats().instructions, 618606u);
  EXPECT_EQ(board->core(0).stats().cycles, 824784u);
  EXPECT_EQ(workloads::readChecksum(images.image(0), board->core(0).memory()),
            1644595200u);
  // One progress beacon per outer iteration, all on the shared bus.
  EXPECT_EQ(board->board().bus.log().size(), 400u);
  EXPECT_EQ(board->board().scratch.reg(7), 1644595200u);
}

// ---- multi-core board -----------------------------------------------

TEST(MultiCore, ProducerConsumerCompletesAtEveryDetailLevelAndQuantum) {
  const auto images = workloads::BoardImages::family(2);
  const elf::Object& producer = images.image(0);
  const elf::Object& consumer = images.image(1);
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    for (const sim::Cycle quantum : {1u, 16u, 256u, 4096u}) {
      SCOPED_TRACE(std::string(xlat::detailLevelName(level)) + ", quantum " +
                   std::to_string(quantum));
      platform::BoardConfig base;
      base.quantum = quantum;
      const auto board = snap::makeBoard(images, {level, true}, base);
      ASSERT_EQ(board->run(), iss::StopReason::kHalted);
      ASSERT_EQ(board->numCores(), 2u);
      // The handshake is interleaving-robust: both sides agree on the
      // checksum whatever the quantum or detail level.
      EXPECT_EQ(workloads::readChecksum(producer, board->core(0).memory()),
                1544u);
      EXPECT_EQ(workloads::readChecksum(consumer, board->core(1).memory()),
                1544u);
      EXPECT_EQ(board->mailbox().pushes(), 16u);
      EXPECT_EQ(board->mailbox().dropped(), 0u);
      EXPECT_EQ(board->mailbox().depth(), 0u);
      EXPECT_EQ(board->core(0).stats().irqs_taken, 16u);
      if (level != xlat::DetailLevel::kFunctional) {
        EXPECT_GT(board->core(0).stats().cycles, 0u);
        EXPECT_GT(board->core(1).stats().cycles, 0u);
      }
    }
  }
}

// The engine grid over board size and quantum: the 1-, 2-, 4- and 8-core
// family() boards at quantum 1, 16, 256 and 4096, at all four detail
// levels. step() and the threaded engine must agree on every observable,
// the bus transaction log included: the same transactions, with the
// same payloads, at the same SoC cycles, in the same order.
class EngineGrid
    : public ::testing::TestWithParam<std::tuple<size_t, sim::Cycle>> {};

TEST_P(EngineGrid, StepAndThreadedAgreeOnEveryObservable) {
  const auto [cores, quantum] = GetParam();
  const auto images = workloads::BoardImages::family(cores);
  platform::BoardConfig base;
  // Cap the long-running workers so the grid stays fast; the cap is
  // architectural state (instruction counts are per core), so capped
  // runs still compare bit-exactly.
  base.iss.max_instructions = 30'000;
  base.quantum = quantum;
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    const auto [step, threaded] = snap::engineGrid(level);
    const auto step_board = snap::makeBoard(images, step, base);
    step_board->run();
    const auto threaded_board = snap::makeBoard(images, threaded, base);
    threaded_board->run();
    EXPECT_EQ(snap::firstMismatch(snap::observe(*step_board),
                                  snap::observe(*threaded_board)),
              "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boards, EngineGrid,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 4, 8),
                       ::testing::Values<sim::Cycle>(1, 16, 256, 4096)),
    [](const auto& info) {
      return "cores" + std::to_string(std::get<0>(info.param)) +
             "_quantum" + std::to_string(std::get<1>(info.param));
    });

// Core i's interrupt controller sits at kIntcOffset + i * kIntcStride, so
// one core past kMaxCores would land on the programmable timer: the board
// refuses it before attaching anything, with an error naming the limit.
TEST(MultiCore, BoardFitsAtMostMaxCores) {
  const size_t max = soc::StandardIoMap::kMaxCores;
  const auto fits = workloads::BoardImages::named(
      std::vector<std::string>(max, "mc_worker"));
  EXPECT_EQ(snap::makeBoard(fits)->numCores(), max);
  const auto over = workloads::BoardImages::named(
      std::vector<std::string>(max + 1, "mc_worker"));
  try {
    (void)snap::makeBoard(over);
    ADD_FAILURE() << "a board with kMaxCores + 1 cores was built";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at most " + std::to_string(max) +
                                         " cores"),
              std::string::npos)
        << e.what();
  }
}

// A core that runs ahead only ever sees the shared bus at or after its
// own local time; with quantum q the skew between the two cores' local
// clocks at any shared access is bounded by one quantum plus one block.
TEST(MultiCore, CoresStayTemporallyDecoupledButOrdered) {
  const auto images = workloads::BoardImages::family(2);
  platform::BoardConfig base;
  base.quantum = 64;
  const auto board = snap::makeBoard(images, {}, base);
  ASSERT_EQ(board->run(), iss::StopReason::kHalted);
  // The bus clock ends at the maximum of the cores' local times.
  const uint64_t t0 = board->core(0).stats().cycles;
  const uint64_t t1 = board->core(1).stats().cycles;
  EXPECT_EQ(board->board().bus.socCycle(), std::max(t0, t1));
}

}  // namespace
}  // namespace cabt
