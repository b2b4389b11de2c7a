// Threaded-code programs: the lowered, execution-ready form of a cached
// block or of a superblock trace (the two tiers of the ISS threaded
// engine). A trace has no other form: BlockCache::formTrace picks its
// chain and lowers it in one step, so a trace is its threaded program.
//
// Where the block cache removes the per-step address lookup and
// successor chaining removes the per-block lookup, a threaded program
// removes the last per-instruction work that is not the instruction's
// own semantics: the decode switch and the operand extraction. Every
// block is lowered *once*, at its first dispatch (a trace on formation),
// into a flat array of ThreadedOp records, each pairing a specialized
// host handler — a function pointer the ISS bound per opcode with the
// timing/icache-touch/branch-extra decisions baked in at lowering time —
// with fully predecoded operands: register indices, materialized
// immediates, the icache set/tag words of the block's cache analysis
// blocks and its cumulative issue-schedule cycles (both from the block's
// record in the shared artifact, core/block_graph.h), plus the statically
// known branch-outcome extra cycles. The hot path is then
//
//     while (op != nullptr) op = op->fn(cpu, op);
//
// back-to-back handler dispatches with no switch, no per-instruction
// config test and no stop-flag polling: handlers return the next record,
// and every record that ends a segment (a control transfer, HALT/BKPT,
// or the synthetic fall-through terminator) returns nullptr, handing
// control back to the dispatcher for the block-boundary epoch (cycle
// commit, quantum yield, interrupt sample, trace guard) that keeps the
// backend bit-identical to per-instruction execution.
//
// Layering: this header is pure data + a lowering driver. The handlers
// themselves live in the ISS (they mutate ISS state), which passes them
// in through a ThreadedBinder — core never depends on iss. The `void*`
// context in ThreadedFn is the ISS instance.
//
// Threaded programs are host-side *derived* state, like the block cache
// whose counters pick the traces: a function of the immutable program
// image, the (fixed per core) ISS config and, for traces, the observed
// branch statistics. They are never serialized; a restore into a cold
// process rebuilds them lazily: each block at its first dispatch, each
// trace once its head re-heats (src/snap, DESIGN.md section 6).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "trc/isa.h"

namespace cabt::core {

struct ThreadedOp;

/// One specialized host handler. Executes its record against the ISS
/// behind `cpu` and returns the next record to dispatch, or nullptr when
/// the segment is done (control transfer retired, HALT/BKPT, or the
/// fall-through terminator).
using ThreadedFn = const ThreadedOp* (*)(void* cpu, const ThreadedOp* op);

/// One pre-bound operation record. The operand fields are opcode-
/// specific (documented per group below); a handler reads only the
/// fields its opcode uses.
struct ThreadedOp {
  ThreadedFn fn = nullptr;
  /// ALU/memory ops: the materialized immediate (kMovh/kMovha already
  /// shifted). Conditional branches / kJl: the fall-through (return)
  /// address. kHalt: the instruction's own address (pc rests there).
  /// kBkpt and the fall-through terminator: the continuation address.
  uint32_t a = 0;
  /// Direct branches: the precomputed target address.
  uint32_t b = 0;
  /// Cumulative issue-schedule cycles after this op (the block's
  /// BlockGraph::schedule entry); handlers bound with timing assign it to
  /// the open block's live pipeline cost.
  uint32_t cum = 0;
  /// Icache set index / tag word of the cache analysis block this op
  /// starts, meaningful only for ops whose handler was bound with the
  /// line touch baked in.
  uint32_t line_set = 0;
  uint32_t line_tag = 0;
  uint8_t rd = 0;
  uint8_t ra = 0;
  uint8_t rb = 0;
  /// Conditional branches: extra cycles if taken (x0) / not taken (x1).
  /// Unconditional transfers: x0 holds the static extra.
  uint8_t x0 = 0;
  uint8_t x1 = 0;
  uint8_t flags = 0;

  static constexpr uint8_t kPredictedTaken = 1;  ///< flags bit
};

/// One constituent block of a threaded program: ops [first, ...] up to
/// the segment's nullptr-returning terminator. `entry_addr` doubles as
/// the guard of the *preceding* segment: execution stays on a trace only
/// while the pc observed at the original block boundary equals the next
/// segment's entry address.
struct ThreadedSegment {
  int32_t block = -1;  ///< index into BlockCache::blocks()
  uint32_t first = 0;  ///< index into ThreadedProgram::ops
  uint32_t entry_addr = 0;
};

/// A lowered block (one segment) or trace (one segment per constituent
/// block, boundary epochs run by the dispatcher between them).
struct ThreadedProgram {
  uint32_t addr = 0;  ///< head block address
  std::vector<ThreadedOp> ops;
  std::vector<ThreadedSegment> segs;
  /// Total instruction count (excludes synthetic terminators). The
  /// dispatcher admits a trace only when the whole trace fits the
  /// remaining instruction budget, so no per-boundary budget test
  /// survives inside.
  uint32_t total_instrs = 0;
};

/// The ISS's contribution to lowering: handler selection. `select`
/// returns the specialized handler for one instruction, with `touch`
/// (this op performs the access of the block's next cache analysis
/// block) baked in; `end` is the synthetic fall-through terminator for
/// segments whose last instruction does not transfer control.
/// `icache_on` tells the lowering whether the per-op line data is
/// meaningful under the core's configured detail level.
struct ThreadedBinder {
  ThreadedFn (*select)(const trc::Instr& in, bool touch) = nullptr;
  ThreadedFn end = nullptr;
  bool icache_on = false;
};

}  // namespace cabt::core
