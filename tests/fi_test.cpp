// Differential conformance fleet for the fault-injection & recovery
// subsystem (src/fi, DESIGN.md section 12).
//
// The claims under test:
//
//   * Non-perturbation: an armed campaign whose faults never fire leaves
//     every observable (the whole snap::Observation: registers, IRQ
//     timestamps, the full bus transaction log, device state and the
//     rolling state digest, which covers memory) byte-identical to an
//     FI-off run, on both ISS engines (step() and threaded).
//   * Engine equivalence under fire: a firing fault lands at the same
//     block-boundary epoch on both engines, so the post-fault timeline
//     is bit-identical everywhere; a campaign armed on a board restored
//     mid-run fires like one armed at reset.
//   * Guest-visible consequences: bus-error windows raise the precise
//     bus-error interrupt at block boundaries; stall windows make a
//     device's reads return 0 and drop its writes; the watchdog
//     peripheral fires when the guest stops petting it.
//   * Graceful degradation: snap::Recorder::recover() walks the snapshot
//     ring newest to oldest past corrupt and trail-divergent entries, and
//     deterministic replay from the restored entry converges on the
//     digest of an uninterrupted clean run (one-shot faults never
//     re-fire after a rewind). A chunk in which the watchdog fired never
//     enters the ring, so a hang rewinds to the last entry before it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fi/fi.h"
#include "fi/inject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "snap/recorder.h"
#include "snap/snapshot.h"
#include "soc/peripherals.h"
#include "soc/watchdog.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

constexpr uint64_t kNever = fi::CoreInjector::kNever;

platform::BoardConfig withWatchdog() {
  platform::BoardConfig cfg;
  cfg.watchdog = true;
  return cfg;
}

// ---- spec parsing and injector validation -----------------------------

TEST(FaultSpecParse, RoundTripsFieldsAndRejectsGarbage) {
  const fi::FaultSpec f =
      fi::parseFaultSpec("dreg@2000:core=1,index=14,mask=255");
  EXPECT_EQ(f.kind, fi::FaultKind::kDataRegFlip);
  EXPECT_EQ(f.cycle, 2000u);
  EXPECT_EQ(f.core, 1u);
  EXPECT_EQ(f.index, 14u);
  EXPECT_EQ(f.mask, 255u);

  const fi::FaultSpec b = fi::parseFaultSpec(
      "buserr@100:addr=4026532608,hi=4026532611,count=2,until=5000");
  EXPECT_EQ(b.kind, fi::FaultKind::kBusError);
  EXPECT_EQ(b.addr, 0xf0000300u);
  EXPECT_EQ(b.addr_hi, 0xf0000303u);
  EXPECT_EQ(b.count, 2u);
  EXPECT_EQ(b.until, 5000u);

  const fi::FaultSpec s = fi::parseFaultSpec("stall@10:device=scratch");
  EXPECT_EQ(s.kind, fi::FaultKind::kDeviceStall);
  EXPECT_EQ(s.device, "scratch");

  EXPECT_THROW(fi::parseFaultSpec("dreg"), Error);            // no @cycle
  EXPECT_THROW(fi::parseFaultSpec("zap@100"), Error);         // unknown kind
  EXPECT_THROW(fi::parseFaultSpec("pc@100:bogus=1"), Error);  // unknown key
  EXPECT_THROW(fi::parseFaultSpec("pc@100:mask"), Error);     // no '='
  EXPECT_THROW(fi::parseFaultSpec("pc@x"), Error);            // bad number
}

// Every number fits its own field: cycle and until take all 64 bits, and
// a 32-bit field rejects what it cannot hold instead of wrapping.
TEST(FaultSpecParse, NumbersKeepTheirFieldWidths) {
  EXPECT_EQ(fi::parseFaultSpec("dreg@4294967297:index=1,mask=1").cycle,
            4294967297u);
  EXPECT_EQ(
      fi::parseFaultSpec("stall@0:device=scratch,until=1099511627776").until,
      uint64_t{1} << 40);
  EXPECT_EQ(fi::parseFaultSpec("mem@0:addr=4294967292,mask=4294967295").mask,
            0xffffffffu);
  EXPECT_THROW(fi::parseFaultSpec("mem@10:addr=4294967296,mask=4"), Error);
  EXPECT_THROW(fi::parseFaultSpec("dreg@10:index=1,mask=4294967296"), Error);
  EXPECT_THROW(fi::parseFaultSpec("dreg@-1:index=1,mask=1"), Error);
  EXPECT_THROW(fi::parseFaultSpec("dreg@18446744073709551616:mask=1"), Error);
}

// Campaign::arm rejects what the board cannot honour with a cabt::Error,
// judged on the spec's own field widths (index 256 must not wrap to d0,
// a core past the board must not surface as std::out_of_range), before
// arming anything — not even the valid spec ahead of the bad one.
TEST(FaultSpecArm, RejectsSpecsOutsideTheBoard) {
  const auto images = workloads::BoardImages::family(1);
  for (const char* spec :
       {"dreg@1500:index=256,mask=1", "areg@1500:index=16,mask=1",
        "dreg@10:core=3,index=1,mask=1", "mem@10:core=1,addr=0,mask=1",
        "buserr@10:core=1,addr=4026532608", "stall@10:device=nosuch",
        "stall@10"}) {
    SCOPED_TRACE(spec);
    auto board = snap::makeBoard(images);
    fi::Campaign camp;
    camp.add(fi::parseFaultSpec("buserr@10:addr=4026532608"));
    camp.add(fi::parseFaultSpec(spec));
    EXPECT_THROW(camp.arm(*board), Error);
    EXPECT_TRUE(board->board().bus.busFaults().empty());
  }
}

TEST(CoreInjector, ValidatesSchedulesAndConsumesInOrder) {
  fi::CoreInjector inj;
  EXPECT_FALSE(inj.due(~0ull - 1));         // empty ladder never fires
  EXPECT_EQ(inj.take(~0ull), nullptr);      // ...and never hands out faults

  fi::CoreFault bad;
  bad.kind = fi::CoreFaultKind::kDataReg;
  bad.index = 16;
  bad.mask = 1;
  EXPECT_THROW(inj.schedule(bad), Error);
  bad.index = 0;
  bad.mask = 0;
  EXPECT_THROW(inj.schedule(bad), Error);
  fi::CoreFault unaligned;
  unaligned.kind = fi::CoreFaultKind::kMemWord;
  unaligned.addr = 2;
  unaligned.mask = 1;
  EXPECT_THROW(inj.schedule(unaligned), Error);

  fi::CoreFault late;
  late.kind = fi::CoreFaultKind::kDataReg;
  late.cycle = 300;
  late.index = 1;
  late.mask = 2;
  fi::CoreFault early = late;
  early.cycle = 100;
  early.index = 2;
  inj.schedule(late);
  inj.schedule(early);  // inserted before `late` despite schedule order
  EXPECT_EQ(inj.scheduled(), 2u);
  EXPECT_FALSE(inj.due(99));
  EXPECT_TRUE(inj.due(100));
  const fi::CoreFault* f = inj.take(100);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->index, 2u);
  EXPECT_EQ(inj.take(100), nullptr);  // `late` not due yet
  EXPECT_EQ(inj.pending(), 1u);
  // Both due at once drain in cycle order; consumed faults never return.
  const fi::CoreFault* g = inj.take(500);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->index, 1u);
  EXPECT_EQ(inj.take(500), nullptr);
  EXPECT_FALSE(inj.due(~0ull - 1));
}

// ---- device-level units -----------------------------------------------

TEST(WatchdogUnit, FiresOnceWhenNotPetted) {
  soc::WatchdogDevice wd;
  wd.write(soc::WatchdogDevice::kLoadOffset, 100, 4, 10);
  EXPECT_THROW(  // arming with LOAD = 0 is a guest bug
      [] {
        soc::WatchdogDevice zero;
        zero.write(soc::WatchdogDevice::kCtrlOffset, 1, 4, 0);
      }(),
      Error);
  wd.write(soc::WatchdogDevice::kCtrlOffset, 1, 4, 10);  // deadline = 110
  EXPECT_TRUE(wd.enabled());
  wd.advanceTo(10, 50);
  EXPECT_EQ(wd.fired(), 0u);
  wd.write(soc::WatchdogDevice::kPetOffset, 1, 4, 50);  // deadline = 150
  wd.advanceTo(50, 120);
  EXPECT_EQ(wd.fired(), 0u);
  EXPECT_EQ(wd.read(soc::WatchdogDevice::kPetOffset, 4, 120), 30u);
  wd.advanceTo(120, 149);  // not petted: expires at 150, not before
  EXPECT_EQ(wd.fired(), 0u);
  wd.advanceTo(149, 150);
  EXPECT_EQ(wd.fired(), 1u);
  EXPECT_FALSE(wd.enabled());  // one-shot
  wd.advanceTo(150, 400);
  EXPECT_EQ(wd.fired(), 1u);
}

// ---- non-perturbation -------------------------------------------------

// An armed campaign whose faults never fire is invisible: digest and the
// full bus log match an FI-off run on both engines.
TEST(NonPerturbation, ArmedIdleCampaignIsByteIdentical) {
  const auto images = workloads::BoardImages::family(2);
  for (const snap::GridPoint& point : snap::engineGrid()) {
    SCOPED_TRACE(snap::gridPointName(point));
    auto ref = snap::makeBoard(images, point);
    ref->run();
    const snap::Observation want = snap::observe(*ref);

    auto board = snap::makeBoard(images, point);
    fi::Campaign camp;
    for (size_t core = 0; core < 2; ++core) {
      fi::FaultSpec f;
      f.kind = fi::FaultKind::kDataRegFlip;
      f.cycle = kNever;  // armed, never due
      f.core = core;
      f.index = 15;
      f.mask = 1;
      camp.add(f);
    }
    fi::FaultSpec bus;
    bus.kind = fi::FaultKind::kBusError;
    bus.cycle = kNever;  // window never opens
    bus.addr = 0xf0000300u;
    camp.add(bus);
    fi::FaultSpec stall;
    stall.kind = fi::FaultKind::kDeviceStall;
    stall.cycle = kNever;
    stall.device = "scratch";
    camp.add(stall);
    camp.arm(*board);
    board->run();
    EXPECT_EQ(snap::firstMismatch(want, snap::observe(*board)), "");
    EXPECT_EQ(camp.firedCount(), 0u);
    EXPECT_EQ(board->board().bus.busFaultFires(), 0u);

    obs::MetricsRegistry reg;
    camp.publishMetrics(reg);
    EXPECT_EQ(reg.counterOr("fi.faults_scheduled"), 4u);
    EXPECT_EQ(reg.counterOr("fi.core_faults_fired"), 0u);
    EXPECT_EQ(reg.counterOr("fi.device_stall_hits"), 0u);
    camp.disarm();
  }
}

// ---- engine equivalence under fire ------------------------------------

// A register flip and a private-memory word flip at fixed cycles land at
// the same boundary epoch in every engine: the post-fault timeline is
// bit-identical everywhere, and differs from the clean run.
TEST(FaultEquivalence, RegisterAndMemoryFlipsMatchAcrossEngines) {
  const auto images = workloads::BoardImages::named({"mc_worker"});
  const uint32_t x_addr = platform::symbolAddr(images.image(0), "x");

  auto clean = snap::makeBoard(images);
  clean->run();
  const uint64_t clean_digest = snap::digest(*clean);

  bool have_want = false;
  snap::Observation want;
  for (const snap::GridPoint& point : snap::engineGrid()) {
    SCOPED_TRACE(snap::gridPointName(point));
    auto board = snap::makeBoard(images, point);
    fi::Campaign camp;
    fi::FaultSpec reg;
    reg.kind = fi::FaultKind::kDataRegFlip;
    reg.cycle = 2000;
    reg.index = 14;  // mc_worker never writes d14: the flip survives
    reg.mask = 0x00ff00ffu;
    camp.add(reg);
    fi::FaultSpec mem;
    mem.kind = fi::FaultKind::kMemFlip;
    mem.cycle = 3000;
    mem.addr = x_addr + 64;  // inside the LCG-initialised input array
    mem.mask = 0xa5u;
    camp.add(mem);
    camp.arm(*board);
    board->run();
    const snap::Observation got = snap::observe(*board);
    EXPECT_EQ(camp.firedCount(), 2u);
    const std::vector<fi::FiredFault>& fired = camp.fired(0);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].after, fired[0].before ^ 0x00ff00ffu);
    EXPECT_GE(fired[0].at, 2000u);
    EXPECT_EQ(fired[1].after, fired[1].before ^ 0xa5u);
    EXPECT_GE(fired[1].at, 3000u);
    if (!have_want) {
      want = got;
      have_want = true;
      // The faults really happened: the fault run's digest differs from
      // the clean run's.
      EXPECT_NE(got.digest, clean_digest);
    } else {
      EXPECT_EQ(snap::firstMismatch(want, got), "");
    }
  }
}

/// A long-running loop: it runs long enough that a restore point at its
/// midpoint leaves room for faults after it.
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

// A campaign armed on a board restored from a mid-run snapshot fires
// exactly like the same campaign armed at reset: four divergent register
// flips after the restore point each end at the cold run's digest.
TEST(FaultEquivalence, ArmedAfterRestoreMatchesArmedAtReset) {
  const auto images = workloads::BoardImages::assembled({longProgram(600)});
  // An icache-level threaded board with aggressive trace and
  // threaded-code formation, as the fuzz oracle runs it.
  platform::BoardConfig base;
  base.iss.trace_threshold = 2;
  base.iss.max_instructions = 2'000'000;
  base.quantum = 256;
  const snap::GridPoint point{xlat::DetailLevel::kICache, true};

  // Clean-run length, then run one board to the midpoint and save it.
  uint64_t total = 0;
  {
    const auto ref = snap::makeBoard(images, point, base);
    ASSERT_EQ(ref->run(), iss::StopReason::kHalted);
    total = ref->board().bus.socCycle();
  }
  ASSERT_GT(total, 400u);
  const uint64_t mid = total / 2;
  const auto warm = snap::makeBoard(images, point, base);
  warm->runTo(mid);
  const std::vector<uint8_t> snapshot = snap::save(*warm);

  std::set<uint64_t> final_digests;
  for (int n = 0; n < 4; ++n) {
    SCOPED_TRACE("flip " + std::to_string(n));
    const std::string spec = "dreg@" + std::to_string(mid + 100) +
                             ":core=0,index=" + std::to_string(n) +
                             ",mask=" + std::to_string(1u << (n + 1));
    // Restored run: restore the snapshot, arm, finish.
    const auto restored = snap::makeBoard(images, point, base);
    snap::restore(*restored, snapshot);
    fi::Campaign rc;
    rc.add(fi::parseFaultSpec(spec));
    rc.arm(*restored);
    restored->run();
    // Cold run: the same fault armed at reset.
    const auto cold = snap::makeBoard(images, point, base);
    fi::Campaign cc;
    cc.add(fi::parseFaultSpec(spec));
    cc.arm(*cold);
    cold->run();
    EXPECT_EQ(rc.firedCount(), cc.firedCount());
    EXPECT_EQ(snap::digest(*restored), snap::digest(*cold));
    final_digests.insert(snap::digest(*restored));
  }
  // The four register flips really diverged from one another.
  EXPECT_GT(final_digests.size(), 1u);
}

// ---- guest-visible consequences ---------------------------------------

// Probes the scratch device while a bus-error window covers it: the
// first two reads return the poison word and raise the precise bus-error
// line; the guest's ISR counts both deliveries. Identical on every
// engine.
const char* kBusErrProbe = R"(
; buserr_probe - count precise bus-error traps from a faulted window
_start: movha a6, 0xf000
        movi d14, 0           ; bus-error count, ISR-owned
        movi d12, 2
        movh d0, hi(isr)
        addi d0, d0, lo(isr)
        stw d0, [a6]0x410     ; intc VECTOR = isr
        movi d0, 4
        stw d0, [a6]0x404     ; intc ENABLE line 2 (bus error)
        movi d0, 1
        stw d0, [a6]0x414     ; intc CTRL master enable
        movi d8, 6
        movi d9, 0
probe:  ldw d5, [a6]0x300     ; scratch register 0 (faulted window)
        add d9, d9, d5
        addi16 d8, -1
        jnz16 d8, probe
ewait:  lt d1, d14, d12
        jnz16 d1, ewait       ; wait for both trap deliveries
        movi d0, 0
        stw d0, [a6]0x414     ; master disable
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
isr:    addi16 d14, 1
        movi d15, 4
        stw d15, [a6]0x40c    ; ACK line 2 (write-1-to-clear)
        movi d15, 1
        stw d15, [a6]0x41c    ; EOI
        ji a14
        .data
result: .word 0
)";

TEST(BusError, WindowPoisonsReadsAndRaisesThePreciseTrap) {
  workloads::Workload probe;
  probe.name = "buserr_probe";
  probe.description = "bus-error trap counter";
  probe.source = kBusErrProbe;
  probe.irq_handler = "isr";
  const workloads::BoardImages images({probe});

  bool have_want = false;
  snap::Observation want;
  for (const snap::GridPoint& point : snap::engineGrid()) {
    SCOPED_TRACE(snap::gridPointName(point));
    auto board = snap::makeBoard(images, point);
    fi::Campaign camp;
    fi::FaultSpec f;
    f.kind = fi::FaultKind::kBusError;
    f.cycle = 0;  // window open from the start...
    f.addr = 0xf0000300u;
    f.count = 2;  // ...but only the first two accesses fault
    camp.add(f);
    camp.arm(*board);
    board->run();
    const snap::Observation got = snap::observe(*board);
    EXPECT_EQ(board->board().bus.busFaultFires(), 2u);
    EXPECT_EQ(got.cores[0].stop, iss::StopReason::kHalted);
    EXPECT_EQ(got.cores[0].d[14], 2u) << "ISR bus-error count";
    // checksum = 2 poison reads + 4 real reads of scratch register 0 (0)
    EXPECT_EQ(
        workloads::readChecksum(images.image(0), board->core(0).memory()),
        static_cast<uint32_t>(2 * 0xdeadbeefull));
    EXPECT_GE(got.cores[0].stats.irqs_taken, 2u);
    if (!have_want) {
      want = got;
      have_want = true;
    } else {
      EXPECT_EQ(snap::firstMismatch(want, got), "");
    }
  }
}

// Writes a countdown to scratch register 1 and reads each value back
// (12 round trips). Nothing the guest does depends on the values read, so
// a stall changes the bus log but not the timing.
const char* kStallProbe = R"(
; stall_probe - write, then read back, a scratch register
_start: movha a6, 0xf000
        movi d8, 12
        movi d9, 0
loop:   stw d8, [a6]0x304     ; scratch register 1
        ldw d5, [a6]0x304
        add d9, d9, d5
        addi16 d8, -1
        jnz16 d8, loop
        halt
)";

constexpr uint32_t kScratchReg1 = 0xf0000304u;

workloads::BoardImages makeStallImages() {
  workloads::Workload probe;
  probe.name = "stall_probe";
  probe.description = "scratch write/read-back loop";
  probe.source = kStallProbe;
  return workloads::BoardImages({probe});
}

std::vector<soc::Transaction> scratchReg1Log(
    const platform::ReferenceBoard& board) {
  std::vector<soc::Transaction> log;
  for (const soc::Transaction& t : board.board().bus.log()) {
    if (t.addr == kScratchReg1) {
      log.push_back(t);
    }
  }
  return log;
}

struct StallTally {
  uint64_t reads = 0;
  uint64_t writes = 0;
};

/// Replays the stall semantics over a scratch-register log: inside a
/// window [from, until) a read returns 0 and a write is dropped; outside,
/// a read returns the last write that landed. Returns the stalled
/// accesses.
StallTally checkStalls(
    const std::vector<soc::Transaction>& log,
    const std::vector<std::pair<uint64_t, uint64_t>>& windows) {
  StallTally tally;
  uint32_t reg = 0;
  for (const soc::Transaction& t : log) {
    bool stalled = false;
    for (const auto& [from, until] : windows) {
      stalled = stalled || (t.soc_cycle >= from && t.soc_cycle < until);
    }
    if (t.is_write) {
      tally.writes += stalled ? 1 : 0;
      if (!stalled) {
        reg = t.value;
      }
    } else {
      tally.reads += stalled ? 1 : 0;
      EXPECT_EQ(t.value, stalled ? 0u : reg)
          << "read at SoC cycle " << t.soc_cycle;
    }
  }
  return tally;
}

/// The clean run's scratch-register log: write i at [2i], read i at [2i+1].
std::vector<soc::Transaction> cleanStallProbeLog() {
  auto clean = snap::makeBoard(makeStallImages());
  clean->run();
  std::vector<soc::Transaction> log = scratchReg1Log(*clean);
  EXPECT_EQ(log.size(), 24u);
  for (size_t i = 0; i + 1 < log.size(); i += 2) {
    EXPECT_TRUE(log[i].is_write);
    EXPECT_LT(log[i].soc_cycle, log[i + 1].soc_cycle);
  }
  return log;
}

// A stall from write 3 up to (not including) read 6: reads 3..5 return 0,
// writes 3..6 are logged but never land, so read 6 still sees write 2.
TEST(DeviceStall, ReadsReturnZeroAndWritesDropInsideTheWindow) {
  const workloads::BoardImages images = makeStallImages();
  const std::vector<soc::Transaction> clean = cleanStallProbeLog();
  ASSERT_EQ(clean.size(), 24u);
  const uint64_t from = clean[6].soc_cycle;    // write 3
  const uint64_t until = clean[13].soc_cycle;  // read 6

  bool have_want = false;
  snap::Observation want;
  for (const snap::GridPoint& point : snap::engineGrid()) {
    SCOPED_TRACE(snap::gridPointName(point));
    auto board = snap::makeBoard(images, point);
    fi::Campaign camp;
    camp.add(fi::parseFaultSpec("stall@" + std::to_string(from) +
                                ":device=scratch,until=" +
                                std::to_string(until)));
    camp.arm(*board);
    board->run();
    const StallTally tally =
        checkStalls(scratchReg1Log(*board), {{from, until}});
    EXPECT_EQ(tally.reads, 3u);
    EXPECT_EQ(tally.writes, 4u);
    EXPECT_EQ(board->board().scratch.reg(1), 1u) << "the last write lands";

    obs::MetricsRegistry reg;
    camp.publishMetrics(reg);
    board->publishMetrics(reg);
    EXPECT_EQ(reg.counterOr("fi.device_stall_hits"), tally.reads + tally.writes);
    EXPECT_EQ(reg.counterOr("board.fi.bus_fault_fires"),
              tally.reads + tally.writes);
    EXPECT_EQ(reg.counterOr("fi.bus_error_fires"), 0u);

    const snap::Observation got = snap::observe(*board);
    if (!have_want) {
      want = got;
      have_want = true;
    } else {
      EXPECT_EQ(snap::firstMismatch(want, got), "");
    }
  }
}

// Every stall spec gets its own window, so two on one device both apply.
TEST(DeviceStall, TwoStallsOnOneDeviceBothApply) {
  const workloads::BoardImages images = makeStallImages();
  const std::vector<soc::Transaction> clean = cleanStallProbeLog();
  ASSERT_EQ(clean.size(), 24u);
  const uint64_t until1 = clean[5].soc_cycle;  // read 2
  const uint64_t from2 = clean[16].soc_cycle;  // write 8
  const uint64_t until2 = clean[21].soc_cycle;  // read 10

  auto board = snap::makeBoard(images);
  fi::Campaign camp;
  camp.add(fi::parseFaultSpec("stall@0:device=scratch,until=" +
                              std::to_string(until1)));
  camp.add(fi::parseFaultSpec("stall@" + std::to_string(from2) +
                              ":device=scratch,until=" +
                              std::to_string(until2)));
  camp.arm(*board);
  board->run();
  const StallTally tally = checkStalls(scratchReg1Log(*board),
                                       {{0, until1}, {from2, until2}});
  EXPECT_EQ(tally.reads, 2u + 2u);
  EXPECT_EQ(tally.writes, 3u + 3u);
  const std::vector<soc::BusFaultWindow>& windows =
      board->board().bus.busFaults();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].fires, 5u);
  EXPECT_EQ(windows[1].fires, 5u);
}

// A stall armed before a bus error over the same register still loses to
// it: the first two reads error (poison, precise trap), the remaining four
// stall (0).
TEST(DeviceStall, BusErrorWinsOverAStallOnTheSameAccess) {
  workloads::Workload probe;
  probe.name = "buserr_probe";
  probe.description = "bus-error trap counter";
  probe.source = kBusErrProbe;
  probe.irq_handler = "isr";
  const workloads::BoardImages images({probe});

  for (const snap::GridPoint& point : snap::engineGrid()) {
    SCOPED_TRACE(snap::gridPointName(point));
    auto board = snap::makeBoard(images, point);
    fi::Campaign camp;
    camp.add(fi::parseFaultSpec("stall@0:device=scratch"));
    camp.add(fi::parseFaultSpec("buserr@0:addr=4026532608,count=2"));
    camp.arm(*board);
    board->run();
    EXPECT_EQ(board->core(0).stopReason(), iss::StopReason::kHalted);
    EXPECT_EQ(board->core(0).d(14), 2u) << "ISR bus-error count";
    EXPECT_EQ(
        workloads::readChecksum(images.image(0), board->core(0).memory()),
        static_cast<uint32_t>(2 * 0xdeadbeefull));
    obs::MetricsRegistry reg;
    camp.publishMetrics(reg);
    EXPECT_EQ(reg.counterOr("fi.bus_error_fires"), 2u);
    EXPECT_EQ(reg.counterOr("fi.device_stall_hits"), 4u);
  }
}

// ---- watchdog + recovery ----------------------------------------------

// Pets the watchdog from a compute loop, then disables it before
// halting. The fault campaigns below redirect pc to `hang`, simulating a
// crashed guest that stops petting.
const char* kWdPet = R"(
; wd_pet - watchdog-petting compute loop
_start: movha a6, 0xf000
        movi d0, 600
        stw d0, [a6]0x700     ; watchdog LOAD = 600 SoC cycles
        movi d0, 1
        stw d0, [a6]0x708     ; watchdog CTRL enable
        movi d8, 40
        movi d9, 0
loop:   movi d7, 20
inner:  add d9, d9, d7
        addi16 d7, -1
        jnz16 d7, inner
        movi d1, 1
        stw d1, [a6]0x704     ; PET
        addi16 d8, -1
        jnz16 d8, loop
        movi d0, 0
        stw d0, [a6]0x708     ; disable before halting
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
hang:   j16 hang              ; fault target: stops petting
        .data
result: .word 0
)";

workloads::BoardImages makeWdImages() {
  workloads::Workload pet;
  pet.name = "wd_pet";
  pet.description = "watchdog-petting compute loop";
  pet.source = kWdPet;
  workloads::BoardImages images({pet});
  // The fault redirects pc into `hang`, which static control flow never
  // reaches — make it a known block leader like an interrupt handler.
  images.addLeader(0, "hang");
  return images;
}

TEST(Watchdog, FiresOnHungGuestAndRecoveryRewindsPastTheFault) {
  const workloads::BoardImages images = makeWdImages();

  auto clean = snap::makeBoard(images, {}, withWatchdog());
  snap::Recorder clean_rec(*clean, 512, 4);
  clean_rec.runTo(sim::kForever);
  const snap::Observation want = snap::observe(*clean);
  const snap::Trail trail = clean_rec.digestTrail();
  ASSERT_GE(trail.size(), 3u);
  EXPECT_EQ(clean->watchdog().fired(), 0u);  // a petted dog never fires

  auto board = snap::makeBoard(images, {}, withWatchdog());
  snap::Recorder rec(*board, 512, 4);
  rec.expectTrail(trail);
  fi::Campaign camp;
  fi::FaultSpec f;
  f.kind = fi::FaultKind::kPcSet;
  f.cycle = 1500;
  f.addr = platform::symbolAddr(images.image(0), "hang");
  camp.add(f);
  camp.arm(*board);
  rec.runTo(4000);
  EXPECT_EQ(camp.firedCount(), 1u);
  EXPECT_EQ(board->watchdog().fired(), 1u) << "unpetted watchdog fires";
  EXPECT_GE(rec.divergences(), 1u);

  const snap::RecoveryReport rep = rec.recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  // With a 1024-cycle quantum the chunk ending at 1536 runs the whole
  // core slice [1024, 2048), where the fault fired, so the newest
  // trail-certified entry is the one at 512.
  EXPECT_EQ(rep.resume_cycle, 512u);
  EXPECT_EQ(board->watchdog().fired(), 0u) << "rewound watchdog state";
  EXPECT_EQ(rec.recoveries(), 1u);
  // The pcset fault was consumed before the rewind: replay runs clean
  // and converges on the uninterrupted run.
  board->run();
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(*board)), "");
  EXPECT_EQ(board->watchdog().fired(), 0u) << "rewound watchdog state";

  obs::MetricsRegistry reg;
  board->publishMetrics(reg);
  rec.publishMetrics(reg);
  EXPECT_EQ(reg.counterOr("board.fi.recoveries"), 1u);
  EXPECT_GE(reg.counterOr("board.fi.divergences"), 1u);
  EXPECT_EQ(reg.counterOr("board.fi.watchdog_fired"), 0u);
}

TEST(Recovery, AutoRecoverRewindsOnTrailDivergence) {
  const workloads::BoardImages images = makeWdImages();

  auto clean = snap::makeBoard(images, {}, withWatchdog());
  snap::Recorder clean_rec(*clean, 512, 4);
  clean_rec.runTo(sim::kForever);
  const snap::Observation want = snap::observe(*clean);

  auto board = snap::makeBoard(images, {}, withWatchdog());
  snap::Recorder rec(*board, 512, 4, /*auto_recover=*/true);
  rec.expectTrail(clean_rec.digestTrail());
  fi::Campaign camp;
  fi::FaultSpec f;
  f.kind = fi::FaultKind::kPcSet;
  f.cycle = 1500;
  f.addr = platform::symbolAddr(images.image(0), "hang");
  camp.add(f);
  camp.arm(*board);
  // The run crosses the divergent checkpoint, auto-recovers to the
  // newest certified entry, and replays to a clean completion in one
  // call.
  rec.runTo(sim::kForever);
  EXPECT_EQ(rec.recoveries(), 1u);
  EXPECT_EQ(rec.divergences(), 1u);
  EXPECT_EQ(board->watchdog().fired(), 0u)
      << "divergence detection recovered before the watchdog expired";
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(*board)), "");
}

/// The cycles of the "recover" instants on the snap lane.
std::vector<uint64_t> recoverInstants(const obs::TraceSink& sink) {
  std::vector<uint64_t> at;
  for (const obs::TraceSink::Event& e : sink.events()) {
    if (e.tid == obs::kSnapLane && std::string(e.name) == "recover") {
      at.push_back(e.ts);
    }
  }
  return at;
}

// Auto-recovery with no expected trail, where only the watchdog reports
// the hang: the chunk the watchdog fired in never enters the ring, so
// the one recovery rewinds to the entry at 512, before the fault, and
// the replay runs clean. (Were the post-fire entry kept, the recovery
// would restore the hang with the one-shot watchdog already spent, and
// the core would spin to its instruction limit.)
TEST(Recovery, WatchdogFireRewindsToTheEntryBeforeIt) {
  const workloads::BoardImages images = makeWdImages();
  platform::BoardConfig cfg = withWatchdog();
  cfg.iss.max_instructions = 200'000;
  auto clean = snap::makeBoard(images, {}, cfg);
  clean->run();
  const snap::Observation want = snap::observe(*clean);

  auto board = snap::makeBoard(images, {}, cfg);
  obs::TraceSink sink;
  board->setTraceSink(&sink);
  snap::Recorder rec(*board, 512, 4, /*auto_recover=*/true);
  fi::Campaign camp;
  camp.add(fi::parseFaultSpec(
      "pcset@1500:addr=" +
      std::to_string(platform::symbolAddr(images.image(0), "hang"))));
  camp.arm(*board);
  rec.runTo(sim::kForever);
  EXPECT_EQ(camp.firedCount(), 1u);
  EXPECT_EQ(rec.recoveries(), 1u);
  EXPECT_EQ(recoverInstants(sink), std::vector<uint64_t>{512});
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(*board)), "");
}

// Pets the watchdog 40 times, then spins without petting: a
// deterministic hang.
const char* kWdStop = R"(
; wd_stop - pets the watchdog 40 times, then hangs
_start: movha a6, 0xf000
        movi d0, 600
        stw d0, [a6]0x700     ; watchdog LOAD = 600 SoC cycles
        movi d0, 1
        stw d0, [a6]0x708     ; watchdog CTRL enable
        movi d8, 40
        movi d9, 0
loop:   movi d7, 20
inner:  add d9, d9, d7
        addi16 d7, -1
        jnz16 d7, inner
        movi d1, 1
        stw d1, [a6]0x704     ; PET
        addi16 d8, -1
        jnz16 d8, loop
spin:   j16 spin              ; stops petting for good
)";

// A deterministic hang fires the watchdog again after every rewind, so
// auto-recovery stops at kMaxAutoRecoveries and the board runs on
// degraded. A fire before any entry is retained leaves nothing to
// rewind to, which throws like a divergence does.
TEST(Recovery, DeterministicHangRecoversUpToTheBound) {
  workloads::Workload stop;
  stop.name = "wd_stop";
  stop.description = "watchdog petted 40 times, then a hang";
  stop.source = kWdStop;
  const workloads::BoardImages images({stop});

  auto board = snap::makeBoard(images, {}, withWatchdog());
  snap::Recorder rec(*board, 512, 4, /*auto_recover=*/true);
  rec.runTo(40'000);
  EXPECT_EQ(rec.recoveries(), snap::kMaxAutoRecoveries);
  EXPECT_EQ(board->watchdog().fired(), 1u) << "the last fire is not rewound";
  EXPECT_GE(board->kernel().now(), 39'000u) << "ran on, degraded";

  auto late = snap::makeBoard(images, {}, withWatchdog());
  snap::Recorder late_rec(*late, 65'536, 4, /*auto_recover=*/true);
  EXPECT_THROW(late_rec.runTo(40'000), Error);
  EXPECT_EQ(late_rec.recoveries(), 0u);
}

// ---- snapshot-ring corruption and graceful degradation ----------------

// Entries corrupted in place in the recorder's ring: the live run is
// untouched, and recover() walks past them (their integrity footer
// fails before any state is mutated) to the newest intact one, from
// which replay converges on the clean run.
TEST(Recovery, CorruptRingEntriesFallBackToTheNewestIntactOne) {
  const auto images = workloads::BoardImages::family(1);
  auto clean = snap::makeBoard(images);
  clean->run();
  const snap::Observation want = snap::observe(*clean);

  auto board = snap::makeBoard(images);
  snap::Recorder rec(*board, 512, 4);
  // Flips one byte of every entry checkpointed from cycle 1000 on, once,
  // mid run and again at the end.
  std::set<sim::Cycle> corrupted;
  const auto corrupt_from_1000 = [&rec, &corrupted] {
    for (snap::Checkpoint& cp : rec.checkpoints()) {
      if (cp.cycle >= 1000 && corrupted.insert(cp.cycle).second) {
        cp.data[100 % cp.data.size()] ^= 0x40;
      }
    }
  };
  rec.runTo(2000);
  corrupt_from_1000();
  rec.runTo(sim::kForever);
  corrupt_from_1000();
  // Corrupting ring copies never touches live state: the run itself is
  // still byte-identical to the clean one. irq_ticks checkpoints at 512,
  // 1024 and 2560; the newer two are corrupted.
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(*board)), "");
  ASSERT_EQ(rec.checkpoints().size(), 3u);
  EXPECT_EQ(corrupted.size(), 2u);

  const snap::RecoveryReport rep = rec.recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  EXPECT_EQ(rep.entries_tried, 3u);
  EXPECT_EQ(rep.entries_corrupt, corrupted.size());
  EXPECT_EQ(rep.resume_cycle, 512u);
  board->run();
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(*board)), "");
}

}  // namespace
}  // namespace cabt
