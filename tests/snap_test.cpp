// Differential conformance fleet for the checkpoint/restore subsystem
// (src/snap, DESIGN.md section 9).
//
// The claim under test: a snapshot is the *complete* observable state of
// the platform. For every detail level and both ISS engines (step() and
// threaded),
//
//   run-to-T, save, continue          (the saved board)
//   fresh board, restore, continue    (a cold process: no warm block
//                                      cache, no superblock traces)
//   halted board, restore, continue   (a warm process re-restored)
//
// all reach observables bit-identical to one uninterrupted run: the
// whole snap::Observation — cycles, registers, IRQ delivery timestamps,
// the full bus transaction log, device state and the rolling state
// digest, which covers memory. The cold
// path is the hard part — it proves the predecoded block caches and
// traces really are derived state that rebuilds to the same
// architectural behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "common/sparse_mem.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "snap/recorder.h"
#include "snap/snapshot.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

/// Architectural equality only: the dispatch-path counters legitimately
/// differ between a warm continuation and a cold restore, and
/// firstMismatch ignores them.
void expectMatch(const snap::Observation& want,
                 platform::ReferenceBoard& board) {
  EXPECT_EQ(snap::firstMismatch(want, snap::observe(board)), "");
}

constexpr sim::Cycle kSaveAt = 1500;  // mid-run at every detail level

/// One configuration's full round trip: uninterrupted reference vs
/// (a) the saved board continuing after save (save has no side effects,
///     and a split kernel run is behaviour-neutral),
/// (b) a cold fresh board restored from the snapshot, and
/// (c) the halted saved board re-restored and re-run (a warm process
///     with stale block-cache statistics, re-winding time).
void roundTrip(const workloads::BoardImages& images,
               const snap::GridPoint& point,
               const platform::BoardConfig& base = {}) {
  auto ref = snap::makeBoard(images, point, base);
  ref->run();
  const snap::Observation want = snap::observe(*ref);

  auto saved = snap::makeBoard(images, point, base);
  saved->runTo(kSaveAt);
  const std::vector<uint8_t> snapshot = snap::save(*saved);
  saved->run();
  {
    SCOPED_TRACE("continue after save");
    expectMatch(want, *saved);
  }

  auto cold = snap::makeBoard(images, point, base);
  snap::restore(*cold, snapshot);
  cold->run();
  {
    SCOPED_TRACE("cold restore");
    expectMatch(want, *cold);
  }

  snap::restore(*saved, snapshot);  // rewind the halted warm board
  saved->run();
  {
    SCOPED_TRACE("warm re-restore");
    expectMatch(want, *saved);
  }
}

// ---- the differential grid -------------------------------------------

class SnapshotGrid : public ::testing::TestWithParam<snap::GridPoint> {};

TEST_P(SnapshotGrid, SaveRestoreRunIsBitIdentical) {
  const auto images = workloads::BoardImages::family(2);
  for (const xlat::DetailLevel level : xlat::kDetailLevels) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    snap::GridPoint point = GetParam();
    point.level = level;
    roundTrip(images, point);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SnapshotGrid, ::testing::ValuesIn(snap::engineGrid()),
    [](const ::testing::TestParamInfo<snap::GridPoint>& info) {
      return snap::gridPointName(info.param);
    });

// The stepping engine can carry an *open block* across a quantum yield
// (the commit is lazy, so the pipeline scoreboard and line tracking are
// live at the save point) — the snapshot must capture that residue. The
// grid covers quantum 1024; a tiny quantum yields at nearly every block.
TEST(SnapshotGrid, SteppingEngineSavesOpenBlockResidue) {
  snap::GridPoint stepping;
  stepping.threaded = false;
  platform::BoardConfig tiny_quantum;
  tiny_quantum.quantum = 16;
  roundTrip(workloads::BoardImages::family(2), stepping, tiny_quantum);
}

// The single-core interrupt scenario: a snapshot taken between two of
// the eight timer deliveries must preserve the interrupt phase exactly
// (in-service flag, pending lines, timer next-expiry).
TEST(SnapshotGrid, InterruptPhaseSurvivesRestore) {
  roundTrip(workloads::BoardImages::family(1), snap::GridPoint{});
}

// ---- deterministic replay --------------------------------------------

TEST(Replay, RunToIsChunkInvariant) {
  const auto images = workloads::BoardImages::family(1);
  auto whole = snap::makeBoard(images);
  whole->run();
  const snap::Observation want = snap::observe(*whole);

  auto chunked = snap::makeBoard(images);
  chunked->runTo(700);
  chunked->runTo(1900);
  chunked->runTo(sim::kForever);
  expectMatch(want, *chunked);
}

TEST(Replay, AutoSnapshotRingRetainsAndReplays) {
  const auto images = workloads::BoardImages::family(1);
  auto ref = snap::makeBoard(images);
  ref->run();
  const snap::Observation want = snap::observe(*ref);

  auto board = snap::makeBoard(images);
  snap::Recorder rec(*board, 512, 2);
  rec.runTo(sim::kForever);
  // Checkpointed execution is behaviour-neutral.
  expectMatch(want, *board);
  // The ring dropped down to the 2 most recent snapshots while the
  // trail recorded every boundary, strictly increasing.
  EXPECT_EQ(rec.checkpoints().size(), 2u);
  EXPECT_GT(rec.digestTrail().size(), rec.checkpoints().size());
  for (size_t i = 1; i < rec.digestTrail().size(); ++i) {
    EXPECT_LT(rec.digestTrail()[i - 1].first, rec.digestTrail()[i].first);
  }
  // Fast-forward replay: restore the oldest retained snapshot into a
  // cold board and run to completion — same observables again.
  auto replay = snap::makeBoard(images);
  snap::restore(*replay, rec.checkpoints().front().data);
  replay->run();
  expectMatch(want, *replay);
  // And the digest recorded at that checkpoint matches the restored
  // board's digest before it runs (restore is digest-preserving).
  auto replay2 = snap::makeBoard(images);
  snap::restore(*replay2, rec.checkpoints().back().data);
  EXPECT_EQ(snap::digest(*replay2), rec.checkpoints().back().digest);
}

// The digest excludes host-side dispatch-path state by design: both
// engines produce the identical value.
TEST(Replay, DigestIsEngineIndependent) {
  const auto images = workloads::BoardImages::family(1);
  auto ref = snap::makeBoard(images);
  ref->run();
  const uint64_t want = snap::digest(*ref);
  for (const snap::GridPoint& point : snap::engineGrid()) {
    SCOPED_TRACE(snap::gridPointName(point));
    auto board = snap::makeBoard(images, point);
    board->run();
    EXPECT_EQ(snap::digest(*board), want);
  }
}

// The digest hashes memory content, not allocation: a page touched only
// with zeros must digest like an untouched one (the canonical rule the
// in-place page hash keeps), while one non-zero byte there must count.
TEST(Replay, DigestSkipsAllZeroPages) {
  const auto images = workloads::BoardImages::family(1);
  auto board = snap::makeBoard(images);
  board->run();
  const uint64_t want = snap::digest(*board);
  SparseMemory& mem = board->core(0).memory();
  constexpr uint32_t kPage = 0x40000000;
  const auto touched = [&] {
    const std::vector<uint32_t> pages = mem.touchedPages();
    return std::find(pages.begin(), pages.end(), kPage) != pages.end();
  };
  ASSERT_FALSE(touched());
  const std::vector<uint8_t> zeros(SparseMemory::kPageSize, 0);
  mem.writeBlock(kPage, zeros.data(), zeros.size());
  ASSERT_TRUE(touched());
  EXPECT_EQ(snap::digest(*board), want);
  mem.write8(kPage + 123, 1);
  EXPECT_NE(snap::digest(*board), want);
}

// ---- format safety ----------------------------------------------------

TEST(SnapshotFormat, RejectsCorruptionTruncationAndMismatch) {
  const auto images = workloads::BoardImages::family(1);
  auto board = snap::makeBoard(images);
  board->runTo(kSaveAt);
  const std::vector<uint8_t> good = snap::save(*board);

  {  // bit flip in the middle fails the integrity footer
    std::vector<uint8_t> bad = good;
    bad[bad.size() / 2] ^= 0x40;
    auto target = snap::makeBoard(images);
    EXPECT_THROW(snap::restore(*target, bad), Error);
  }
  {  // truncation
    std::vector<uint8_t> bad(good.begin(), good.end() - 9);
    auto target = snap::makeBoard(images);
    EXPECT_THROW(snap::restore(*target, bad), Error);
  }
  {  // wrong board shape (core count)
    const auto pair = workloads::BoardImages::family(2);
    auto target = snap::makeBoard(pair);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // wrong detail level (architectural config mismatch)
    snap::GridPoint functional;
    functional.level = xlat::DetailLevel::kFunctional;
    auto target = snap::makeBoard(images, functional);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // wrong program image
    const auto other = workloads::BoardImages::named({"mc_worker"});
    auto target = snap::makeBoard(other);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // the good snapshot still restores after all those rejections
    auto target = snap::makeBoard(images);
    snap::restore(*target, good);
    target->run();
    board->run();  // save has no side effects: the clean end state
    expectMatch(snap::observe(*board), *target);
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

/// Offset of the first core's stored stop reason: past the "iss" tag,
/// the compatibility record (three flags, kIrqEntryCycles u32,
/// max_instructions u64, the program fingerprint u64) and the pc u32.
size_t issStop(const std::vector<uint8_t>& snap) {
  return afterString(snap, "iss") + 3 + 4 + 8 + 8 + 4;
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
  const auto images = workloads::BoardImages::family(1);
  auto board = snap::makeBoard(images);
  board->runTo(kSaveAt);
  const std::vector<uint8_t> good = snap::save(*board);
  ASSERT_GT(good.size(), 64u);
  board->run();  // save has no side effects: the clean end state
  const snap::Observation want = snap::observe(*board);

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
       [](std::vector<uint8_t>& s) { s[afterString(s, "bus") + 4] ^= 0x40; }},
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
      // Values the core never stores: kCycleLimit is only returned (a
      // restored one would re-sync forever), and 200 names no reason.
      {"stop reason 4, footer recomputed",
       [](std::vector<uint8_t>& s) {
         s.at(issStop(s)) = 4;
         refootSnapshot(s);
       },
       "snapshot stop reason 4"},
      {"stop reason 200, footer recomputed",
       [](std::vector<uint8_t>& s) {
         s.at(issStop(s)) = 200;
         refootSnapshot(s);
       },
       "snapshot stop reason 200"},
      // The miss path evicts the way the LRU word's low byte names.
      {"icache LRU words 0xffffffff, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t at = afterString(s, "icache");
         const uint32_t sets = getU32(s, at);
         const size_t lru = at + 8 + 4 * size_t{sets} * getU32(s, at + 4);
         for (uint32_t set = 0; set < sets; ++set) {
           putU32(s, lru + 4 * set, 0xffffffffu);
         }
         refootSnapshot(s);
       },
       "snapshot icache LRU word"},
      {"unaligned memory page base, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t first = afterString(s, "mem") + 4;
         putU32(s, first, getU32(s, first) + 1);
         refootSnapshot(s);
       },
       "is not page-aligned"},
      {"repeated memory page base, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t at = afterString(s, "mem");
         ASSERT_GE(getU32(s, at), 2u);
         const size_t first = at + 4;
         putU32(s, first + 4 + SparseMemory::kPageSize, getU32(s, first));
         refootSnapshot(s);
       },
       "does not follow the previous page"},
  };

  for (const auto& [name, mutate, error] : kCases) {
    SCOPED_TRACE(name);
    std::vector<uint8_t> bad = good;
    mutate(bad);
    auto target = snap::makeBoard(images);
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
    expectMatch(want, *target);
  }
}

// ---- the shared observation harness (snap/observe.h) ----------------

/// A finished producer/consumer board: IRQ deliveries on core 0, mailbox
/// traffic and a few hundred bus transactions.
snap::Observation pairObservation() {
  const auto images = workloads::BoardImages::family(2);
  auto board = snap::makeBoard(images);
  board->run();
  return snap::observe(*board);
}

/// True when `diff` is one line that starts with `named`.
bool names(const std::string& diff, const std::string& named) {
  return diff.rfind(named, 0) == 0 && diff.find('\n') == std::string::npos;
}

TEST(Observation, FirstMismatchNamesEachPerturbedField) {
  const snap::Observation want = pairObservation();
  EXPECT_EQ(snap::firstMismatch(want, pairObservation()), "");
  ASSERT_GT(want.bus_log.size(), 17u);
  ASSERT_EQ(want.bus_log[17].size, 4u);
  ASSERT_GT(want.cores[0].irq_times.size(), 2u);

  using O = snap::Observation;
  std::vector<std::pair<std::string, std::function<void(O&)>>> rows = {
      {"core 1 stop max_instructions != halted",
       [](O& o) { o.cores[1].stop = iss::StopReason::kMaxInstructions; }},
      {"core 0 pc ", [](O& o) { o.cores[0].pc += 4; }},
      {"core 1 d7 ", [](O& o) { o.cores[1].d[7] ^= 1; }},
      {"core 0 a3 ", [](O& o) { o.cores[0].a[3] ^= 1; }},
      {"core 0 irq 2 delivered at ", [](O& o) { ++o.cores[0].irq_times[2]; }},
      {"core 0 irq deliveries ", [](O& o) { o.cores[0].irq_times.pop_back(); }},
      {"core 1 intc pending ", [](O& o) { o.cores[1].intc_pending ^= 2; }},
      {"core 0 intc irqs_taken ", [](O& o) { ++o.cores[0].intc_irqs_taken; }},
      {"bus txn 17 soc_cycle ", [](O& o) { ++o.bus_log[17].soc_cycle; }},
      {"bus txn 17 addr ", [](O& o) { o.bus_log[17].addr ^= 4; }},
      {"bus txn 17 value ", [](O& o) { o.bus_log[17].value ^= 1; }},
      {"bus txn 17 size 1 != 4", [](O& o) { o.bus_log[17].size = 1; }},
      {"bus txn 17 is_write ",
       [](O& o) { o.bus_log[17].is_write = !o.bus_log[17].is_write; }},
      {"bus log length ", [](O& o) { o.bus_log.pop_back(); }},
      {"scratch 5 ", [](O& o) { o.scratch[5] ^= 1; }},
      {"bus cycle ", [](O& o) { ++o.bus_cycle; }},
      {"ptimer expiries ", [](O& o) { ++o.ptimer_expiries; }},
      {"mailbox pushes ", [](O& o) { ++o.mailbox_pushes; }},
      {"mailbox dropped ", [](O& o) { ++o.mailbox_dropped; }},
      {"mailbox depth ", [](O& o) { ++o.mailbox_depth; }},
      {"kernel events ", [](O& o) { ++o.kernel_events; }},
      {"digest ", [](O& o) { o.digest ^= 1; }},
  };
  for (const iss::StatCounter& c : iss::kArchitecturalCounters) {
    rows.push_back({std::string("core 1 ") + c.name + " ",
                    [c](O& o) { ++(o.cores[1].stats.*c.field); }});
  }
  for (const auto& [named, perturb] : rows) {
    O got = want;
    perturb(got);
    const std::string diff = snap::firstMismatch(want, got);
    EXPECT_TRUE(names(diff, named)) << named << " | " << diff;
  }

  // A bare core compares the same way, without the "core N" prefix.
  const auto images = workloads::BoardImages::family(1);
  auto board = snap::makeBoard(images);
  board->run();
  const snap::CoreObservation bare = snap::observe(board->core(0));
  snap::CoreObservation flipped = bare;
  EXPECT_EQ(snap::firstMismatch(bare, flipped), "");
  flipped.d[2] ^= 1;
  EXPECT_TRUE(names(snap::firstMismatch(bare, flipped), "d2 "));
}

// The dispatch-path counters record how blocks were reached, which
// legitimately differs between engines and warm/cold restores.
TEST(Observation, DispatchPathCountersAreIgnored) {
  const snap::Observation want = pairObservation();
  snap::Observation got = want;
  // cached_blocks, chain_hits, trace_*, guard_bails, threaded_*
  ASSERT_EQ(iss::kDispatchPathCounters.size(), 9u);
  for (snap::CoreObservation& core : got.cores) {
    for (const iss::StatCounter& c : iss::kDispatchPathCounters) {
      ++(core.stats.*c.field);
    }
  }
  EXPECT_EQ(snap::firstMismatch(want, got), "");
}

// Across detail levels only the functional observables must agree.
TEST(Observation, FunctionalComparisonIgnoresTiming) {
  const snap::Observation want = pairObservation();
  snap::Observation got = want;
  for (snap::CoreObservation& core : got.cores) {
    core.stats.cycles += 7;
    core.stats.cache_penalty += 3;
    core.irq_times.clear();
  }
  got.bus_cycle += 7;
  got.bus_log.clear();
  got.digest ^= 1;
  EXPECT_EQ(snap::firstFunctionalMismatch(want, got), "");
  EXPECT_NE(snap::firstMismatch(want, got), "");
  got.cores[1].a[5] ^= 1;
  EXPECT_TRUE(names(snap::firstFunctionalMismatch(want, got), "core 1 a5 "));
  ++got.cores[1].stats.io_writes;
  EXPECT_TRUE(
      names(snap::firstFunctionalMismatch(want, got), "core 1 io_writes "));
  ++got.cores[0].stats.instructions;
  EXPECT_TRUE(
      names(snap::firstFunctionalMismatch(want, got), "core 0 instructions "));
}

}  // namespace
}  // namespace cabt
