// SoC bus, peripheral and synchronization-device tests, including the
// lazy-clock contract: every device's next event, the bus horizon, and a
// seeded differential between eager per-cycle clocking and horizon-driven
// sampling.
#include <gtest/gtest.h>

#include <random>

#include "common/error.h"
#include "soc/bus.h"
#include "soc/interrupts.h"
#include "soc/peripherals.h"
#include "soc/standard_board.h"
#include "soc/sync_device.h"
#include "soc/watchdog.h"

namespace cabt::soc {
namespace {

TEST(SocBus, RoutesToAttachedDevices) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0xf0000300, 0x40);
  EXPECT_TRUE(bus.covers(0xf0000300));
  EXPECT_TRUE(bus.covers(0xf000033c));
  EXPECT_FALSE(bus.covers(0xf0000340));
  bus.write(0xf0000304, 77, 4);
  EXPECT_EQ(bus.read(0xf0000304, 4), 77u);
  EXPECT_EQ(scratch.reg(1), 77u);
}

TEST(SocBus, UnmappedAccessThrows) {
  SocBus bus;
  EXPECT_THROW(bus.read(0x1000, 4), Error);
  EXPECT_THROW(bus.write(0x1000, 0, 4), Error);
}

TEST(SocBus, RejectsOverlappingWindows) {
  SocBus bus;
  ScratchDevice a;
  ScratchDevice b;
  bus.attach(&a, 0x100, 0x40);
  EXPECT_THROW(bus.attach(&b, 0x13c, 0x40), Error);
  // [0xfffffff0, +0x40) would wrap onto [0, 0x30) and pass a 32-bit
  // overlap check; covers(0x8) would then answer for both devices.
  SocBus low;
  low.attach(&a, 0x0, 0x40);
  EXPECT_THROW(low.attach(&b, 0xfffffff0, 0x40), Error);
  SocBus top;
  top.attach(&b, 0xffffffc0, 0x40);  // ends exactly at 2^32: fine
  EXPECT_TRUE(top.covers(0xffffffff));
}

TEST(SocBus, LogsTransactionsWithCycleStamps) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0x0, 0x40);
  bus.advanceTo(2);
  bus.write(0x0, 5, 4);
  bus.advanceTo(3);
  bus.advanceTo(1);  // the past is ignored
  bus.read(0x0, 4);
  ASSERT_EQ(bus.log().size(), 2u);
  EXPECT_EQ(bus.log()[0].soc_cycle, 2u);
  EXPECT_TRUE(bus.log()[0].is_write);
  EXPECT_EQ(bus.log()[1].soc_cycle, 3u);
  EXPECT_FALSE(bus.log()[1].is_write);
}

TEST(SocBus, LogLimitKeepsMostRecentTransactions) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0x0, 0x40);
  bus.setLogLimit(4);
  for (uint32_t i = 0; i < 100; ++i) {
    bus.advanceTo(i + 1);
    bus.write(0x0, i, 4);
  }
  // The cap bounds memory (below 2x the limit) while always retaining at
  // least the most recent `limit` entries, newest last.
  ASSERT_GE(bus.log().size(), 4u);
  ASSERT_LT(bus.log().size(), 8u);
  EXPECT_EQ(bus.droppedTransactions() + bus.log().size(), 100u);
  EXPECT_EQ(bus.log().back().value, 99u);
  const size_t n = bus.log().size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bus.log()[i].value, 100 - n + i);
    EXPECT_EQ(bus.log()[i].soc_cycle, 100 - n + i + 1);
  }
  // Tightening the cap trims immediately; clearing resets the counter.
  bus.setLogLimit(2);
  EXPECT_EQ(bus.log().size(), 2u);
  EXPECT_EQ(bus.log().back().value, 99u);
  bus.clearLog();
  EXPECT_EQ(bus.droppedTransactions(), 0u);
  EXPECT_TRUE(bus.log().empty());
}

TEST(SocBus, UnlimitedLogIsTheDefault) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0x0, 0x40);
  for (uint32_t i = 0; i < 1000; ++i) {
    bus.write(0x0, i, 4);
  }
  EXPECT_EQ(bus.log().size(), 1000u);
  EXPECT_EQ(bus.droppedTransactions(), 0u);
}

TEST(Timer, CountsOnlyClockedCycles) {
  // The count is elapsed bus time, however the time was split.
  SocBus bus;
  TimerDevice timer;
  bus.attach(&timer, 0x0, 0x10);
  EXPECT_EQ(bus.read(0x0, 4), 0u);
  bus.advanceTo(1);
  bus.advanceTo(4);
  bus.advanceTo(5);
  EXPECT_EQ(bus.read(0x0, 4), 5u);
  bus.write(0x8, 0, 4);  // reset
  EXPECT_EQ(bus.read(0x0, 4), 0u);
  bus.advanceTo(9);
  EXPECT_EQ(bus.read(0x0, 4), 4u);
  EXPECT_EQ(timer.nextEvent(), kNoEvent);
}

TEST(CharDev, CollectsOutputWithStamps) {
  SocBus bus;
  CharDevice chardev;
  bus.attach(&chardev, 0x0, 0x10);
  bus.advanceTo(1);
  bus.write(0x0, 'h', 4);
  bus.advanceTo(2);
  bus.write(0x0, 'i', 4);
  EXPECT_EQ(chardev.output(), "hi");
  EXPECT_EQ(chardev.stamps(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(bus.read(0x4, 4), 2u);
}

TEST(SyncDevice, GeneratesExactlyRequestedCycles) {
  SocBus bus;
  TimerDevice timer;
  bus.attach(&timer, 0x0, 0x10);
  SyncDevice sync(&bus, /*rate=*/1);
  sync.start(5);
  EXPECT_NE(sync.remaining(), 0u);
  sync.advanceTo(3);
  EXPECT_EQ(sync.totalGenerated(), 3u);
  sync.advanceTo(10);
  EXPECT_EQ(sync.remaining(), 0u);
  EXPECT_EQ(sync.totalGenerated(), 5u);
  EXPECT_EQ(bus.socCycle(), 5u);
  EXPECT_EQ(timer.count(), 5u);  // the attached hardware saw every cycle
}

TEST(SyncDevice, RateDividesVliwClock) {
  SocBus bus;
  SyncDevice sync(&bus, /*rate=*/4);
  sync.start(2);
  sync.advanceTo(7);
  EXPECT_EQ(sync.totalGenerated(), 1u);
  EXPECT_NE(sync.remaining(), 0u);
  sync.advanceTo(8);  // 2 SoC cycles at 4 VLIW cycles each
  EXPECT_EQ(sync.totalGenerated(), 2u);
  EXPECT_EQ(sync.remaining(), 0u);
}

TEST(SyncDevice, CorrectionAccumulates) {
  SocBus bus;
  SyncDevice sync(&bus, 1);
  sync.start(3);
  sync.correct(2);
  sync.advanceTo(100);
  EXPECT_EQ(sync.totalGenerated(), 5u);
  EXPECT_EQ(sync.correctionTotal(), 2u);
  EXPECT_EQ(sync.numStarts(), 1u);
  EXPECT_EQ(sync.numCorrections(), 1u);
}

TEST(SyncDevice, IdleTicksEmitNothing) {
  SocBus bus;
  SyncDevice sync(&bus, 1);
  sync.advanceTo(100);
  EXPECT_FALSE(sync.edgeThisCycle());
  EXPECT_EQ(sync.totalGenerated(), 0u);
  EXPECT_EQ(bus.socCycle(), 0u);
  // Generation counts from the last catch-up, not from reset.
  sync.start(2);
  sync.advanceTo(101);
  EXPECT_EQ(sync.totalGenerated(), 1u);
}

TEST(SyncDevice, EdgeThisCycleMarksTheEmittingCycle) {
  SocBus bus;
  SyncDevice sync(&bus, /*rate=*/3);
  sync.start(2);
  const bool want[] = {false, false, true, false, false, true, false};
  for (uint64_t c = 1; c <= 7; ++c) {
    sync.advanceTo(c);
    EXPECT_EQ(sync.edgeThisCycle(), want[c - 1]) << "VLIW cycle " << c;
  }
  // Caught up in one jump, the edge is still the one on the last edge.
  SocBus bus2;
  SyncDevice jump(&bus2, 3);
  jump.start(2);
  jump.advanceTo(6);
  EXPECT_TRUE(jump.edgeThisCycle());
  jump.advanceTo(7);
  EXPECT_FALSE(jump.edgeThisCycle());
}

TEST(SyncDevice, CatchUpInStepsEqualsCycleByCycle) {
  // Starts and corrections land between catch-ups at seeded VLIW times;
  // one device catches up every cycle, the other only at those times.
  for (unsigned rate : {1u, 2u, 5u}) {
    std::mt19937 rng(rate);
    SocBus bus_a;
    SocBus bus_b;
    SyncDevice a(&bus_a, rate);
    SyncDevice b(&bus_b, rate);
    uint64_t now = 0;
    for (int i = 0; i < 200; ++i) {
      const uint64_t next = now + 1 + rng() % 12;
      for (uint64_t c = now + 1; c <= next; ++c) {
        a.advanceTo(c);
      }
      b.advanceTo(next);
      now = next;
      ASSERT_EQ(a.totalGenerated(), b.totalGenerated()) << "t=" << now;
      ASSERT_EQ(a.remaining(), b.remaining()) << "t=" << now;
      ASSERT_EQ(a.edgeThisCycle(), b.edgeThisCycle()) << "t=" << now;
      ASSERT_EQ(bus_a.socCycle(), bus_b.socCycle());
      const uint32_t n = rng() % 6;
      if (rng() % 4 == 0) {
        a.correct(n);
        b.correct(n);
      } else {
        a.start(n);
        b.start(n);
      }
    }
    EXPECT_GT(a.totalGenerated(), 100u);
  }
}

TEST(SyncDevice, WaitCountsNameTheCycleTheWaitEnds) {
  // After starts and corrections at seeded VLIW times, mid-generation
  // included, cyclesToIdle() and cyclesToNextEdge() name the cycle
  // generation ends and the cycle of the next edge: catching up cycle
  // by cycle reaches idle (the next edge) exactly that many cycles on,
  // and not one cycle earlier.
  for (unsigned rate : {1u, 2u, 5u}) {
    std::mt19937 rng(rate);
    SocBus bus;
    SyncDevice dev(&bus, rate);
    uint64_t now = 0;
    for (int i = 0; i < 200; ++i) {
      const uint32_t n = rng() % 6;
      if (rng() % 4 == 0) {
        dev.correct(n);
      } else {
        dev.start(n);
      }
      const uint64_t idle_at = now + dev.cyclesToIdle();
      const uint64_t edge_at = now + dev.cyclesToNextEdge();
      ASSERT_EQ(idle_at > now, dev.remaining() != 0) << "t=" << now;
      ASSERT_EQ(edge_at > now, dev.remaining() != 0) << "t=" << now;
      const uint64_t next = now + 1 + rng() % 12;
      for (uint64_t c = now + 1; c <= next; ++c) {
        dev.advanceTo(c);
        ASSERT_EQ(dev.remaining() != 0, c < idle_at) << "t=" << c;
        if (c <= edge_at) {
          ASSERT_EQ(dev.edgeThisCycle(), c == edge_at) << "t=" << c;
        }
      }
      now = next;
    }
    EXPECT_GT(dev.totalGenerated(), 100u);
  }
}

TEST(StandardBoard, AttachesPeripheralsAtStandardOffsets) {
  StandardPeripherals board(0xf0000000);
  board.bus.write(0xf0000200, 'x', 4);
  EXPECT_EQ(board.chardev.output(), "x");
  board.bus.advanceTo(1);
  EXPECT_EQ(board.bus.read(0xf0000100, 4), 1u);  // timer
  board.bus.write(0xf0000300, 9, 4);
  EXPECT_EQ(board.scratch.reg(0), 9u);
}

// ---- the lazy-clock contract: next events and the horizon ---------------

constexpr uint32_t kPtLoad = ProgrammableTimer::kLoadOffset;
constexpr uint32_t kPtCtrl = ProgrammableTimer::kCtrlOffset;

TEST(NextEvent, ProgrammableTimerOneShot) {
  ProgrammableTimer t;
  EXPECT_EQ(t.nextEvent(), kNoEvent);  // disabled
  t.write(kPtLoad, 50, 4, 0);
  EXPECT_EQ(t.nextEvent(), kNoEvent);  // LOAD alone does not arm
  t.write(kPtCtrl, 1, 4, 10);
  EXPECT_EQ(t.nextEvent(), 60u);
  t.advanceTo(10, 59);
  EXPECT_EQ(t.nextEvent(), 60u);  // an advance short of it changes nothing
  t.advanceTo(59, 60);
  EXPECT_EQ(t.expiries(), 1u);
  EXPECT_EQ(t.nextEvent(), kNoEvent);
}

TEST(NextEvent, ProgrammableTimerPeriodic) {
  ProgrammableTimer t;
  t.write(kPtLoad, 100, 4, 0);
  t.write(kPtCtrl, 3, 4, 0);  // enable | periodic
  EXPECT_EQ(t.nextEvent(), 100u);
  t.advanceTo(0, 250);
  EXPECT_EQ(t.expiries(), 2u);
  EXPECT_EQ(t.nextEvent(), 300u);
  t.write(kPtCtrl, 3, 4, 260);  // re-arm from now
  EXPECT_EQ(t.nextEvent(), 360u);
}

TEST(NextEvent, ProgrammableTimerLoadClearedWhileArmed) {
  ProgrammableTimer t;
  t.write(kPtLoad, 100, 4, 0);
  t.write(kPtCtrl, 3, 4, 0);
  t.write(kPtLoad, 0, 4, 40);
  EXPECT_EQ(t.nextEvent(), 100u);  // the armed expiry still fires
  t.advanceTo(40, 100);
  EXPECT_EQ(t.expiries(), 1u);
  EXPECT_EQ(t.nextEvent(), kNoEvent);  // ... and stops the timer
}

TEST(NextEvent, ProgrammableTimerDisabled) {
  ProgrammableTimer t;
  t.write(kPtLoad, 100, 4, 0);
  t.write(kPtCtrl, 1, 4, 0);
  t.write(kPtCtrl, 0, 4, 30);
  EXPECT_EQ(t.nextEvent(), kNoEvent);
  t.advanceTo(30, 1000);
  EXPECT_EQ(t.expiries(), 0u);
}

TEST(NextEvent, WatchdogArmedPettedFired) {
  WatchdogDevice w;
  EXPECT_EQ(w.nextEvent(), kNoEvent);
  w.write(WatchdogDevice::kLoadOffset, 40, 4, 0);
  w.write(WatchdogDevice::kCtrlOffset, 1, 4, 5);
  EXPECT_EQ(w.nextEvent(), 45u);  // armed
  w.write(WatchdogDevice::kPetOffset, 0, 4, 30);
  EXPECT_EQ(w.nextEvent(), 70u);  // petted
  w.advanceTo(30, 69);
  EXPECT_EQ(w.fired(), 0u);
  w.advanceTo(69, 70);
  EXPECT_EQ(w.fired(), 1u);
  EXPECT_EQ(w.nextEvent(), kNoEvent);  // fired: one-shot
}

TEST(NextEvent, InterruptControllerAsksForASampleExactlyWhileItCanDeliver) {
  using IC = InterruptController;
  IC intc;
  const auto due = [&intc] { return intc.nextEvent() == 0; };
  EXPECT_FALSE(due());
  intc.raise(2);
  EXPECT_FALSE(due());  // masked: master off, line disabled
  intc.write(IC::kCtrlOffset, 1, 4, 0);
  EXPECT_FALSE(due());  // line 2 still disabled
  intc.write(IC::kEnableOffset, 1u << 2, 4, 0);
  EXPECT_TRUE(due());  // CTRL + ENABLE + raised
  intc.write(IC::kCtrlOffset, 0, 4, 0);
  EXPECT_FALSE(due());  // CTRL off
  intc.write(IC::kCtrlOffset, 1, 4, 0);
  EXPECT_TRUE(due());
  ASSERT_TRUE(intc.takeIrq(7).has_value());
  EXPECT_FALSE(due());  // taken: in service
  intc.write(IC::kEoiOffset, 0, 4, 0);
  EXPECT_TRUE(due());  // EOI with the line still raised
  intc.write(IC::kAckOffset, 1u << 2, 4, 0);
  EXPECT_FALSE(due());  // acked
  intc.write(IC::kSoftOffset, 2, 4, 0);
  EXPECT_TRUE(due());  // SOFT raise
  intc.write(IC::kEnableOffset, 0, 4, 0);
  EXPECT_FALSE(due());  // ENABLE off
  intc.advanceTo(0, 1'000'000);
  EXPECT_FALSE(due());  // time alone never changes it
}

TEST(NextEvent, AccessOnlyDevicesNeverHaveOne) {
  CharDevice chardev;
  ScratchDevice scratch;
  MailboxDevice mailbox;
  mailbox.write(0x0, 7, 4, 3);
  chardev.write(0x0, 'a', 4, 3);
  scratch.write(0x0, 1, 4, 3);
  EXPECT_EQ(chardev.nextEvent(), kNoEvent);
  EXPECT_EQ(scratch.nextEvent(), kNoEvent);
  EXPECT_EQ(mailbox.nextEvent(), kNoEvent);
}

/// The lazy-clock board of the differential below: every device with
/// time-driven or interrupt behaviour behind one bus, all raising lines on
/// one controller.
struct LazyBoard {
  static constexpr uint32_t kTimer = 0x000;
  static constexpr uint32_t kIntc = 0x100;
  static constexpr uint32_t kPTimer = 0x200;
  static constexpr uint32_t kMailbox = 0x300;
  static constexpr uint32_t kWatchdog = 0x400;

  SocBus bus;
  TimerDevice timer;
  InterruptController intc;
  ProgrammableTimer ptimer;
  MailboxDevice mailbox;
  WatchdogDevice watchdog;

  LazyBoard() {
    bus.attach(&timer, kTimer, 0x10);
    bus.attach(&intc, kIntc, InterruptController::kWindowSize);
    bus.attach(&ptimer, kPTimer, ProgrammableTimer::kWindowSize);
    bus.attach(&mailbox, kMailbox, 0x10);
    bus.attach(&watchdog, kWatchdog, WatchdogDevice::kWindowSize);
    ptimer.setIrqTarget(&intc, 0);
    mailbox.setDoorbell(0, [this] { intc.raise(1); });
    watchdog.setIrqTarget(&intc, 3);
  }
};

/// One scripted bus access at SoC cycle `at`.
struct Access {
  uint64_t at;
  uint32_t addr;
  uint32_t value;
  bool is_write;
};

/// A seeded access script over every register of the LazyBoard devices.
/// Arming writes only follow a non-zero LOAD, so no access throws.
std::vector<Access> accessScript(uint32_t seed, uint64_t cycles) {
  std::mt19937 rng(seed);
  std::vector<Access> script;
  uint32_t pt_load = 0;
  uint32_t wd_load = 0;
  for (uint64_t t = 1; t < cycles; t += 1 + rng() % 24) {
    const auto pick = [&rng](std::initializer_list<uint32_t> v) {
      return *(v.begin() + rng() % v.size());
    };
    Access a{t, 0, 0, true};
    switch (rng() % 5) {
      case 0:  // ptimer
        a.addr = LazyBoard::kPTimer + pick({0x0, 0x4, 0x8, 0xc});
        a.is_write = a.addr - LazyBoard::kPTimer <= 0x4 && rng() % 3 != 0;
        if (a.is_write && a.addr == LazyBoard::kPTimer) {
          a.value = rng() % 8 == 0 ? 0 : 1 + rng() % 90;
          pt_load = a.value;
        } else if (a.is_write) {
          a.value = pt_load == 0 ? 0 : rng() % 4;
        }
        break;
      case 1: {  // intc: lines 0..3 only, so SOFT raises a wired line
        using IC = InterruptController;
        const uint32_t off = 4 * (rng() % 8);
        const bool writable =
            off != IC::kRawOffset && off != IC::kPendingOffset;
        const bool readable = off != IC::kAckOffset && off != IC::kSoftOffset;
        a.addr = LazyBoard::kIntc + off;
        a.is_write = writable && (!readable || rng() % 4 != 0);
        a.value = off == IC::kSoftOffset   ? rng() % 4
                  : off == IC::kCtrlOffset ? rng() % 2
                                           : rng() % 16;
        break;
      }
      case 2:  // mailbox: push, pop, status, doorbell
        switch (rng() % 4) {
          case 0:
            a = {t, LazyBoard::kMailbox, static_cast<uint32_t>(rng()), true};
            break;
          case 1:
            a = {t, LazyBoard::kMailbox, 0, false};
            break;
          case 2:
            a = {t, LazyBoard::kMailbox + 0x4, 0, false};
            break;
          default:
            a = {t, LazyBoard::kMailbox + 0x8, 0, true};
            break;
        }
        break;
      case 3:  // watchdog
        a.addr = LazyBoard::kWatchdog + pick({0x0, 0x4, 0x8, 0xc});
        a.is_write = a.addr - LazyBoard::kWatchdog <= 0x8 && rng() % 3 != 0;
        if (a.is_write && a.addr == LazyBoard::kWatchdog) {
          a.value = 1 + rng() % 120;
          wd_load = a.value;
        } else if (a.is_write && a.addr == LazyBoard::kWatchdog + 0x8) {
          a.value = wd_load == 0 ? 0 : rng() % 2;
        }
        break;
      default:  // free-running timer: read, or reset
        a.is_write = rng() % 4 == 0;
        a.addr = LazyBoard::kTimer + (a.is_write ? 0x8 : pick({0x0, 0x4}));
        break;
    }
    script.push_back(a);
  }
  return script;
}

/// Runs `script` on a fresh board with a sample boundary at every cycle.
/// Eager: the bus advances and the controller is sampled at every cycle.
/// Lazy: a boundary below the horizon does neither; accesses advance the
/// bus to their own time, and the end of the run flushes it.
std::vector<uint8_t> runScript(const std::vector<Access>& script,
                               uint64_t cycles, bool lazy, LazyBoard& b,
                               uint64_t* samples) {
  size_t next = 0;
  for (uint64_t c = 1; c <= cycles; ++c) {
    if (!lazy || c >= b.bus.horizon()) {
      ++*samples;
      b.bus.advanceTo(c);
      if (b.intc.takeIrq(c).has_value()) {
        b.bus.updateHorizon();
      }
    }
    for (; next < script.size() && script[next].at == c; ++next) {
      const Access& a = script[next];
      b.bus.advanceTo(c);
      if (a.is_write) {
        b.bus.write(a.addr, a.value, 4);
      } else {
        b.bus.read(a.addr, 4);
      }
    }
  }
  b.bus.advanceTo(cycles);
  serial::Writer w;
  b.bus.saveState(w);
  return w.data();
}

TEST(LazyClock, HorizonSamplingMatchesEagerClockingOnSeededTraffic) {
  constexpr uint64_t kCycles = 6000;
  uint64_t deliveries = 0;
  uint64_t expiries = 0;
  uint64_t fires = 0;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    const std::vector<Access> script = accessScript(seed, kCycles);
    LazyBoard eager;
    LazyBoard lazy;
    uint64_t eager_samples = 0;
    uint64_t lazy_samples = 0;
    const std::vector<uint8_t> want =
        runScript(script, kCycles, false, eager, &eager_samples);
    const std::vector<uint8_t> got =
        runScript(script, kCycles, true, lazy, &lazy_samples);
    // Same transaction log (values and stamps), device state and delivery
    // times; the serialized bus section carries all three.
    EXPECT_EQ(lazy.bus.log(), eager.bus.log()) << "seed " << seed;
    EXPECT_EQ(lazy.intc.deliveryTimes(), eager.intc.deliveryTimes())
        << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_LT(lazy_samples, eager_samples) << "seed " << seed;
    deliveries += eager.intc.irqsTaken();
    expiries += eager.ptimer.expiries();
    fires += eager.watchdog.fired();
  }
  // The script must exercise what it claims to.
  EXPECT_GT(deliveries, 20u);
  EXPECT_GT(expiries, 20u);
  EXPECT_GT(fires, 5u);
}

TEST(LazyClock, BusRecomputesTheHorizonAfterAccessAdvanceAndRestore) {
  LazyBoard b;
  EXPECT_EQ(b.bus.horizon(), kNoEvent);
  b.bus.write(LazyBoard::kPTimer + kPtLoad, 30, 4);
  b.bus.write(LazyBoard::kPTimer + kPtCtrl, 3, 4);  // periodic from 0
  EXPECT_EQ(b.bus.horizon(), 30u);
  b.bus.write(LazyBoard::kWatchdog, 20, 4);
  b.bus.write(LazyBoard::kWatchdog + 0x8, 1, 4);
  EXPECT_EQ(b.bus.horizon(), 20u);
  serial::Writer at0;
  b.bus.saveState(at0);
  b.bus.advanceTo(25);  // the watchdog fires; its line is masked
  EXPECT_EQ(b.watchdog.fired(), 1u);
  EXPECT_EQ(b.bus.horizon(), 30u);
  b.bus.write(LazyBoard::kIntc + InterruptController::kEnableOffset, 8, 4);
  b.bus.write(LazyBoard::kIntc + InterruptController::kCtrlOffset, 1, 4);
  EXPECT_EQ(b.bus.horizon(), 0u);  // the raised line can be delivered
  ASSERT_TRUE(b.intc.takeIrq(25).has_value());
  b.bus.updateHorizon();
  EXPECT_EQ(b.bus.horizon(), 30u);
  serial::Reader r(at0.data());
  b.bus.restoreState(r);
  EXPECT_EQ(b.bus.horizon(), 20u);
}

}  // namespace
}  // namespace cabt::soc
