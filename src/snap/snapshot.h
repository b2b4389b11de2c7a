// Versioned binary checkpoint/restore of the whole reference platform,
// plus the rolling state digest behind deterministic replay (DESIGN.md
// section 9).
//
// A snapshot captures everything the next simulated cycle can observe:
// every core's architectural and micro-architectural ISS state (register
// files, pc, lazy-commit cycle accounting, pipeline scoreboard, icache
// tags/LRU, IssStats, breakpoints), every SparseMemory image, the SoC
// bus clock with its transaction-log tail and all device state
// (interrupt controllers, timers, mailbox, scratch, chardev), and the
// event kernel's queue with each process's pending activation — so
//
//     save(); restore(); run(N)   ==   run(N)
//
// bit-identically, at every detail level and on both ISS engines
// (tests/snap_test.cpp). What a snapshot deliberately does NOT contain
// is host-side derived state: block graphs, predecoded block caches and
// superblock traces are pure functions of the immutable program image —
// a restore revalidates what exists and rebuilds the rest lazily, which
// is what makes a snapshot restorable into a cold process.
//
// Snapshots are taken between kernel runs only (the platform's
// checkpointing loop guarantees that); the format is little-endian,
// carries a magic/version header and an FNV-1a integrity footer, and
// every layer frames its own section (common/serial.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace cabt::snap {

/// Bumped whenever any layer's section layout changes. Old snapshots
/// refuse to load — fast-forward state is cheap to regenerate, silent
/// misinterpretation is not.
/// v2 added the IssStats threaded counters; v3 dropped the kernel's
/// parallel-round counters and the IssStats private-slice counters.
inline constexpr uint32_t kFormatVersion = 3;

/// Serializes the full platform state.
std::vector<uint8_t> save(const platform::ReferenceBoard& board);

/// Restores a snapshot into `board`, which must be configured
/// identically to the board that produced it (same images, core count,
/// detail level, quantum, device set) — construction-time wiring is
/// verified, not serialized. The board may be warm (mid-run, halted) or
/// cold (freshly constructed); either way the next run() continues
/// bit-identically to the saved platform.
void restore(platform::ReferenceBoard& board,
             const std::vector<uint8_t>& data);

/// 64-bit rolling digest of the platform's architectural state: per-core
/// digestState (registers, pc, timing residue, architectural counters,
/// canonical memory), the bus clock, the transaction-log tail and all
/// device state. Host-side dispatch-path counters and the kernel queue
/// are excluded, so the digest is identical across both ISS engines and
/// warm/cold restores of the same run — it is the value
/// scripts/golden_state.py pins per workload.
uint64_t digest(const platform::ReferenceBoard& board);

/// File convenience wrappers (the CLI and scripts use these).
void saveFile(const platform::ReferenceBoard& board,
              const std::string& path);
void restoreFile(platform::ReferenceBoard& board, const std::string& path);

}  // namespace cabt::snap
