// Differential conformance fleet for the checkpoint/restore subsystem
// (src/snap, DESIGN.md section 9).
//
// The claim under test: a snapshot is the *complete* observable state of
// the platform. For every detail level, both ISS engines (step() and
// threaded) and both kernels (sequential and parallel rounds),
//
//   run-to-T, save, continue          (the saved board)
//   fresh board, restore, continue    (a cold process: no warm block
//                                      cache, no superblock traces)
//   halted board, restore, continue   (a warm process re-restored)
//
// all reach observables bit-identical to one uninterrupted run: cycles,
// registers, memory checksums, IRQ delivery timestamps, the full bus
// transaction log, device state and the rolling state digest. The cold
// path is the hard part — it proves the predecoded block caches and
// traces really are derived state that rebuilds to the same
// architectural behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "soc/bus.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

struct GridBoard {
  std::vector<const workloads::Workload*> programs;
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> image_ptrs;
  std::vector<uint32_t> extra_leaders;
};

GridBoard makeBoard(const std::vector<std::string>& names) {
  GridBoard b;
  for (const std::string& name : names) {
    b.programs.push_back(&workloads::get(name));
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

struct RunConfig {
  xlat::DetailLevel level = xlat::DetailLevel::kICache;
  bool use_block_cache = true;
  bool parallel = false;
  sim::Cycle quantum = 1024;
};

std::unique_ptr<platform::ReferenceBoard> buildBoard(const GridBoard& grid,
                                                     const RunConfig& rc) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(rc.level);
  cfg.iss.use_block_cache = rc.use_block_cache;
  cfg.iss.extra_leaders = grid.extra_leaders;
  cfg.quantum = rc.quantum;
  cfg.parallel.enabled = rc.parallel;
  cfg.parallel.workers = 2;  // real threads even on 1-core hosts
  return std::make_unique<platform::ReferenceBoard>(desc, grid.image_ptrs,
                                                    cfg);
}

/// Every observable the acceptance criteria name, plus the digest.
struct BoardObs {
  std::vector<iss::IssStats> stats;
  std::vector<iss::StopReason> stop;
  std::vector<uint32_t> pc;
  std::vector<std::array<uint32_t, 16>> d;
  std::vector<std::array<uint32_t, 16>> a;
  std::vector<uint32_t> checksum;
  std::vector<std::vector<uint64_t>> irq_times;
  std::vector<uint32_t> intc_pending;
  uint64_t bus_cycle = 0;
  uint64_t timer_expiries = 0;
  uint64_t mailbox_pushes = 0;
  uint64_t mailbox_dropped = 0;
  size_t mailbox_depth = 0;
  std::array<uint32_t, 16> scratch{};
  std::vector<soc::Transaction> bus_log;
  uint64_t kernel_events = 0;
  uint64_t digest = 0;
};

BoardObs capture(platform::ReferenceBoard& board, const GridBoard& grid) {
  BoardObs s;
  for (size_t i = 0; i < board.numCores(); ++i) {
    s.stats.push_back(board.core(i).stats());
    s.stop.push_back(board.core(i).stopReason());
    s.pc.push_back(board.core(i).pc());
    std::array<uint32_t, 16> d{};
    std::array<uint32_t, 16> a{};
    for (int r = 0; r < 16; ++r) {
      d[static_cast<size_t>(r)] = board.core(i).d(r);
      a[static_cast<size_t>(r)] = board.core(i).a(r);
    }
    s.d.push_back(d);
    s.a.push_back(a);
    s.checksum.push_back(
        workloads::readChecksum(grid.images[i], board.core(i).memory()));
    s.irq_times.push_back(board.intc(i).deliveryTimes());
    s.intc_pending.push_back(board.intc(i).pending());
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
  s.digest = snap::digest(board);
  return s;
}

/// Architectural equality only: the dispatch-path counters (cached_
/// blocks, chain_hits, trace_*, guard_bails, private_*) legitimately
/// differ between a warm continuation and a cold restore.
void expectIdentical(const BoardObs& got, const BoardObs& want) {
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (size_t i = 0; i < got.stats.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    const iss::IssStats& g = got.stats[i];
    const iss::IssStats& w = want.stats[i];
    EXPECT_EQ(g.instructions, w.instructions);
    EXPECT_EQ(g.cycles, w.cycles);
    EXPECT_EQ(g.pipeline_cycles, w.pipeline_cycles);
    EXPECT_EQ(g.branch_extra, w.branch_extra);
    EXPECT_EQ(g.cache_penalty, w.cache_penalty);
    EXPECT_EQ(g.blocks, w.blocks);
    EXPECT_EQ(g.icache_accesses, w.icache_accesses);
    EXPECT_EQ(g.icache_misses, w.icache_misses);
    EXPECT_EQ(g.cond_branches, w.cond_branches);
    EXPECT_EQ(g.cond_taken, w.cond_taken);
    EXPECT_EQ(g.mispredicts, w.mispredicts);
    EXPECT_EQ(g.io_reads, w.io_reads);
    EXPECT_EQ(g.io_writes, w.io_writes);
    EXPECT_EQ(g.irqs_taken, w.irqs_taken);
    EXPECT_EQ(g.irq_entry_cycles, w.irq_entry_cycles);
    EXPECT_EQ(got.stop[i], want.stop[i]);
    EXPECT_EQ(got.pc[i], want.pc[i]);
    EXPECT_EQ(got.d[i], want.d[i]);
    EXPECT_EQ(got.a[i], want.a[i]);
    EXPECT_EQ(got.checksum[i], want.checksum[i]);
    EXPECT_EQ(got.irq_times[i], want.irq_times[i])
        << "IRQ delivery timestamps";
    EXPECT_EQ(got.intc_pending[i], want.intc_pending[i]);
  }
  EXPECT_EQ(got.bus_cycle, want.bus_cycle);
  EXPECT_EQ(got.timer_expiries, want.timer_expiries);
  EXPECT_EQ(got.mailbox_pushes, want.mailbox_pushes);
  EXPECT_EQ(got.mailbox_dropped, want.mailbox_dropped);
  EXPECT_EQ(got.mailbox_depth, want.mailbox_depth);
  EXPECT_EQ(got.scratch, want.scratch);
  EXPECT_EQ(got.kernel_events, want.kernel_events);
  EXPECT_EQ(got.digest, want.digest) << "rolling state digest";
  ASSERT_EQ(got.bus_log.size(), want.bus_log.size());
  for (size_t i = 0; i < got.bus_log.size(); ++i) {
    const soc::Transaction& a = got.bus_log[i];
    const soc::Transaction& b = want.bus_log[i];
    EXPECT_EQ(a.soc_cycle, b.soc_cycle) << "transaction " << i;
    EXPECT_EQ(a.addr, b.addr) << "transaction " << i;
    EXPECT_EQ(a.value, b.value) << "transaction " << i;
    EXPECT_EQ(a.size, b.size) << "transaction " << i;
    EXPECT_EQ(a.is_write, b.is_write) << "transaction " << i;
  }
}

constexpr sim::Cycle kSaveAt = 1500;  // mid-run at every detail level

/// One configuration's full round trip: uninterrupted reference vs
/// (a) the saved board continuing after save (save has no side effects,
///     and a split kernel run is behaviour-neutral),
/// (b) a cold fresh board restored from the snapshot, and
/// (c) the halted saved board re-restored and re-run (a warm process
///     with stale block-cache statistics, re-winding time).
void roundTrip(const GridBoard& grid, const RunConfig& rc) {
  auto ref = buildBoard(grid, rc);
  ref->run();
  const BoardObs want = capture(*ref, grid);

  auto saved = buildBoard(grid, rc);
  saved->runTo(kSaveAt);
  const std::vector<uint8_t> snapshot = snap::save(*saved);
  saved->run();
  {
    SCOPED_TRACE("continue after save");
    expectIdentical(capture(*saved, grid), want);
  }

  auto cold = buildBoard(grid, rc);
  snap::restore(*cold, snapshot);
  cold->run();
  {
    SCOPED_TRACE("cold restore");
    expectIdentical(capture(*cold, grid), want);
  }

  snap::restore(*saved, snapshot);  // rewind the halted warm board
  saved->run();
  {
    SCOPED_TRACE("warm re-restore");
    expectIdentical(capture(*saved, grid), want);
  }
}

// ---- the differential grid -------------------------------------------

struct GridParam {
  bool threaded;
  bool parallel;
};

class SnapshotGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(SnapshotGrid, SaveRestoreRunIsBitIdentical) {
  const auto [threaded, parallel] = GetParam();
  const GridBoard grid = makeBoard({"mc_producer", "mc_consumer"});
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
        xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    RunConfig rc;
    rc.level = level;
    rc.use_block_cache = threaded;
    rc.parallel = parallel;
    roundTrip(grid, rc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SnapshotGrid,
    ::testing::Values(GridParam{false, false}, GridParam{true, false},
                      GridParam{false, true}, GridParam{true, true}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::string(info.param.threaded ? "threaded" : "step") +
             (info.param.parallel ? "_par" : "_seq");
    });

// The stepping engine can carry an *open block* across a quantum yield
// (the commit is lazy, so the pipeline scoreboard and line tracking are
// live at the save point) — the snapshot must capture that residue. The
// grid covers quantum 1024; a tiny quantum yields at nearly every block.
TEST(SnapshotGrid, SteppingEngineSavesOpenBlockResidue) {
  const GridBoard grid = makeBoard({"mc_producer", "mc_consumer"});
  RunConfig rc;
  rc.use_block_cache = false;
  rc.quantum = 16;
  roundTrip(grid, rc);
}

// The single-core interrupt scenario: a snapshot taken between two of
// the eight timer deliveries must preserve the interrupt phase exactly
// (in-service flag, pending lines, timer next-expiry).
TEST(SnapshotGrid, InterruptPhaseSurvivesRestore) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    RunConfig rc;
    rc.parallel = parallel;
    roundTrip(grid, rc);
  }
}

// ---- deterministic replay --------------------------------------------

TEST(Replay, RunToIsChunkInvariant) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto whole = buildBoard(grid, rc);
  whole->run();
  const BoardObs want = capture(*whole, grid);

  auto chunked = buildBoard(grid, rc);
  chunked->runTo(700);
  chunked->runTo(1900);
  chunked->runTo(sim::kForever);
  expectIdentical(capture(*chunked, grid), want);
}

TEST(Replay, AutoSnapshotRingRetainsAndReplays) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto ref = buildBoard(grid, rc);
  ref->run();
  const BoardObs want = capture(*ref, grid);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 2, ""});
  board->run();
  // Checkpointed execution is behaviour-neutral.
  expectIdentical(capture(*board, grid), want);
  // The ring dropped down to the 2 most recent snapshots while the
  // trail recorded every boundary, strictly increasing.
  EXPECT_EQ(board->checkpoints().size(), 2u);
  EXPECT_GT(board->digestTrail().size(), board->checkpoints().size());
  for (size_t i = 1; i < board->digestTrail().size(); ++i) {
    EXPECT_LT(board->digestTrail()[i - 1].first,
              board->digestTrail()[i].first);
  }
  // Fast-forward replay: restore the oldest retained snapshot into a
  // cold board and run to completion — same observables again.
  auto replay = buildBoard(grid, rc);
  snap::restore(*replay, board->checkpoints().front().data);
  replay->run();
  expectIdentical(capture(*replay, grid), want);
  // And the digest recorded at that checkpoint matches the restored
  // board's digest before it runs (restore is digest-preserving).
  auto replay2 = buildBoard(grid, rc);
  snap::restore(*replay2, board->checkpoints().back().data);
  EXPECT_EQ(snap::digest(*replay2), board->checkpoints().back().digest);
}

// The digest excludes host-side dispatch-path state by design: both
// engines — and the parallel kernel — produce the identical value.
TEST(Replay, DigestIsEngineIndependent) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  RunConfig base;
  auto ref = buildBoard(grid, base);
  ref->run();
  const uint64_t want = snap::digest(*ref);
  RunConfig stepping;
  stepping.use_block_cache = false;
  auto board = buildBoard(grid, stepping);
  board->run();
  EXPECT_EQ(snap::digest(*board), want);
  RunConfig par;
  par.parallel = true;
  auto pboard = buildBoard(grid, par);
  pboard->run();
  EXPECT_EQ(snap::digest(*pboard), want);
}

// ---- format safety ----------------------------------------------------

TEST(SnapshotFormat, RejectsCorruptionTruncationAndMismatch) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto board = buildBoard(grid, rc);
  board->runTo(kSaveAt);
  const std::vector<uint8_t> good = snap::save(*board);

  {  // bit flip in the middle fails the integrity footer
    std::vector<uint8_t> bad = good;
    bad[bad.size() / 2] ^= 0x40;
    auto target = buildBoard(grid, rc);
    EXPECT_THROW(snap::restore(*target, bad), Error);
  }
  {  // truncation
    std::vector<uint8_t> bad(good.begin(), good.end() - 9);
    auto target = buildBoard(grid, rc);
    EXPECT_THROW(snap::restore(*target, bad), Error);
  }
  {  // wrong board shape (core count)
    const GridBoard pair = makeBoard({"mc_producer", "mc_consumer"});
    auto target = buildBoard(pair, rc);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // wrong detail level (architectural config mismatch)
    RunConfig functional;
    functional.level = xlat::DetailLevel::kFunctional;
    auto target = buildBoard(grid, functional);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // wrong program image
    const GridBoard other = makeBoard({"mc_worker"});
    auto target = buildBoard(other, rc);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // the good snapshot still restores after all those rejections
    auto target = buildBoard(grid, rc);
    snap::restore(*target, good);
    target->run();
    auto ref = buildBoard(grid, rc);
    ref->run();
    EXPECT_EQ(snap::digest(*target), snap::digest(*ref));
  }
}

/// Recomputes the FNV footer over everything before it, so a mutation
/// survives the integrity check and has to be caught by the layer it
/// actually corrupts (version gate, shape gate, reader bounds).
void refootSnapshot(std::vector<uint8_t>& snap) {
  ASSERT_GT(snap.size(), 8u);
  const uint64_t sum = serial::fnv1a(snap.data(), snap.size() - 8);
  for (size_t i = 0; i < 8; ++i) {
    snap[snap.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
}

uint32_t getU32(const std::vector<uint8_t>& snap, size_t at) {
  return static_cast<uint32_t>(snap.at(at)) |
         static_cast<uint32_t>(snap.at(at + 1)) << 8 |
         static_cast<uint32_t>(snap.at(at + 2)) << 16 |
         static_cast<uint32_t>(snap.at(at + 3)) << 24;
}

void putU32(std::vector<uint8_t>& snap, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    snap.at(at + i) = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Offset just past the first length-prefixed string `s` (a section tag
/// or a device name) in a snapshot.
size_t afterString(const std::vector<uint8_t>& snap, const std::string& s) {
  std::vector<uint8_t> pattern(4);
  putU32(pattern, 0, static_cast<uint32_t>(s.size()));
  pattern.insert(pattern.end(), s.begin(), s.end());
  const auto it =
      std::search(snap.begin(), snap.end(), pattern.begin(), pattern.end());
  EXPECT_NE(it, snap.end()) << "no '" << s << "' in the snapshot";
  return static_cast<size_t>(it - snap.begin()) + pattern.size();
}

/// Offset of device `name`'s state: past its name and section length.
size_t deviceState(const std::vector<uint8_t>& snap, const std::string& name) {
  return afterString(snap, name) + 4;
}

/// Overwrites a u32 element count with one far larger than the bytes
/// left (but small enough to allocate), then recomputes the footer.
void oversizeCount(std::vector<uint8_t>& snap, size_t at) {
  putU32(snap, at, 1'000'000);
  refootSnapshot(snap);
}

// Every corruption class the recovery path can meet in a ring entry,
// table-driven. Layout under attack: magic[8] | version u32 | cores u32
// | kernel section | bus section | per-core sections | FNV footer u64.
// Mutations that leave the footer stale are caught by the integrity
// check; mutations that *recompute* the footer must be caught by the
// specific gate they target — restore() must throw either way and the
// target board must remain usable.
TEST(SnapshotFormat, TableDrivenCorruptionIsAlwaysRejected) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto board = buildBoard(grid, rc);
  board->runTo(kSaveAt);
  const std::vector<uint8_t> good = snap::save(*board);
  ASSERT_GT(good.size(), 64u);

  using Mutate = std::function<void(std::vector<uint8_t>&)>;
  struct Case {
    std::string name;
    Mutate mutate;
    /// When set, the rejection must carry this message: the gate the
    /// mutation targets fired, not a later layer.
    std::string error = {};
  };
  const std::vector<Case> kCases = {
      {"truncated mid-kernel-section",
       [](std::vector<uint8_t>& s) { s.resize(24); }},
      {"truncated mid-core-section",
       [](std::vector<uint8_t>& s) { s.resize(s.size() * 3 / 4); }},
      {"truncated mid-core-section, footer recomputed",  // reader bounds
       [](std::vector<uint8_t>& s) {
         s.resize(s.size() * 3 / 4);
         refootSnapshot(s);
       }},
      {"flipped magic byte", [](std::vector<uint8_t>& s) { s[0] ^= 0x20; }},
      {"flipped version byte", [](std::vector<uint8_t>& s) { s[8] ^= 0x01; }},
      {"wrong version, footer recomputed",  // version gate
       [](std::vector<uint8_t>& s) {
         s[8] ^= 0x01;
         refootSnapshot(s);
       }},
      {"wrong core count, footer recomputed",  // shape gate
       [](std::vector<uint8_t>& s) {
         s[12] ^= 0x01;
         refootSnapshot(s);
       }},
      {"flipped kernel-section byte",
       [](std::vector<uint8_t>& s) { s[20] ^= 0x40; }},
      {"flipped bus-section byte",
       [](std::vector<uint8_t>& s) { s[s.size() / 3] ^= 0x40; }},
      {"flipped core-section byte",
       [](std::vector<uint8_t>& s) { s[s.size() * 3 / 4] ^= 0x40; }},
      {"zeroed footer",
       [](std::vector<uint8_t>& s) {
         std::fill(s.end() - 8, s.end(), uint8_t{0});
       }},
      {"flipped footer byte",
       [](std::vector<uint8_t>& s) { s[s.size() - 3] ^= 0x04; }},
      // Input-sized allocations: each count is checked against the bytes
      // left before anything is resized.
      {"oversized chardev stamps count, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t out = deviceState(s, "chardev");
         oversizeCount(s, out + 4 + getU32(s, out));  // past the output
       },
       "snapshot count 1000000"},
      {"oversized delivery-times count, footer recomputed",
       [](std::vector<uint8_t>& s) {
         // raw, enable, vector u32; master_enable, in_service b; irqs u64
         oversizeCount(s, deviceState(s, "intc0") + 12 + 2 + 8);
       },
       "snapshot count 1000000"},
      {"oversized bus-log count, footer recomputed",
       [](std::vector<uint8_t>& s) {
         // soc_cycle u64, dropped_transactions u64
         oversizeCount(s, afterString(s, "bus") + 16);
       },
       "snapshot count 1000000"},
      // Out-of-range mailbox indices would index past the FIFO later.
      {"mailbox head 7, footer recomputed",
       [](std::vector<uint8_t>& s) {
         putU32(s, deviceState(s, "mailbox") + 16, 7);  // past fifo[4]
         refootSnapshot(s);
       },
       "mailbox snapshot head"},
      {"mailbox count 5, footer recomputed",
       [](std::vector<uint8_t>& s) {
         putU32(s, deviceState(s, "mailbox") + 20, 5);
         refootSnapshot(s);
       },
       "mailbox snapshot head"},
  };

  for (const auto& [name, mutate, error] : kCases) {
    SCOPED_TRACE(name);
    std::vector<uint8_t> bad = good;
    mutate(bad);
    auto target = buildBoard(grid, rc);
    try {
      snap::restore(*target, bad);
      ADD_FAILURE() << "corrupt snapshot restored without an error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
          << e.what();
    }
    // A rejected restore may have partially consumed the image only
    // when the footer was valid; either way the board must still
    // accept the intact snapshot and replay to the clean end state.
    snap::restore(*target, good);
    target->run();
    auto ref = buildBoard(grid, rc);
    ref->run();
    EXPECT_EQ(snap::digest(*target), snap::digest(*ref));
  }
}

// Graceful degradation through the ring (DESIGN.md section 12): when
// the newest ring entries are corrupted in place, recover() walks past
// them to the newest intact one and deterministic replay from there
// converges on the clean run.
TEST(SnapshotFormat, RecoverFallsThroughCorruptRingEntries) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto ref = buildBoard(grid, rc);
  ref->run();
  const BoardObs want = capture(*ref, grid);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 4, ""});
  // Corrupt every ring entry recorded after cycle 600 as it is pushed
  // (same mechanism fi::Campaign ring faults use).
  size_t corrupted = 0;
  board->setCheckpointHook([&corrupted](platform::Checkpoint& cp) {
    if (cp.cycle > 600) {
      cp.data[cp.data.size() / 2] ^= 0x40;
      ++corrupted;
    }
  });
  board->run();
  ASSERT_GE(board->checkpoints().size(), 2u);
  ASSERT_GE(corrupted, 1u);

  const platform::RecoveryReport rep = board->recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  EXPECT_EQ(rep.entries_corrupt, corrupted);
  EXPECT_LE(rep.resume_cycle, 600u);
  board->run();
  expectIdentical(capture(*board, grid), want);
}

}  // namespace
}  // namespace cabt
