// Deterministic per-core fault injector (DESIGN.md section 12).
//
// A CoreInjector holds a cycle-sorted list of architectural faults for one
// core. The ISS polls it at basic-block boundaries through the same
// idempotent due-time ladder as obs::PcSampler: `due(now)` is a single
// compare against the next scheduled cycle, so an un-due injector costs one
// branch per boundary epoch and re-observing the same epoch (block engine
// falling back to step(), quantum resume) can never double-apply a fault.
//
// Faults are one-shot: take() consumes the cursor entry and the injector is
// never serialized into snapshots. Restoring a checkpoint and replaying
// therefore does NOT re-fire already-consumed faults — which is exactly what
// recovery wants: fall back to a pre-fault ring entry, replay, and converge
// on the clean-run digest.
//
// An injector belongs to one core and is touched only from that core's
// execution context.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"

namespace cabt::fi {

enum class CoreFaultKind : uint8_t {
  kDataReg,  // d[index] ^= mask
  kAddrReg,  // a[index] ^= mask
  kPc,       // mask != 0 ? pc ^= mask : pc = addr
  kMemWord,  // private-memory word at addr ^= mask (never bus, never code)
};

struct CoreFault {
  CoreFaultKind kind = CoreFaultKind::kDataReg;
  uint64_t cycle = 0;  // first boundary epoch with localTime() >= cycle fires
  uint8_t index = 0;   // register number for kDataReg/kAddrReg
  uint32_t addr = 0;   // kMemWord target / kPc absolute target
  uint32_t mask = 0;   // xor mask (kPc: 0 means "set pc = addr")
};

// What actually happened when a fault fired, for reporting and tracing.
struct FiredFault {
  CoreFault fault;
  uint64_t at = 0;  // localTime() of the boundary epoch that applied it
  uint32_t pc = 0;  // guest pc at that boundary (before a kPc fault applies)
  uint32_t before = 0;
  uint32_t after = 0;
};

class CoreInjector {
 public:
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  void schedule(const CoreFault& f) {
    if (f.kind == CoreFaultKind::kDataReg || f.kind == CoreFaultKind::kAddrReg) {
      CABT_CHECK(f.index < 16, "fault register index out of range: "
                                   << unsigned{f.index});
      CABT_CHECK(f.mask != 0, "register-flip fault needs a nonzero mask");
    }
    if (f.kind == CoreFaultKind::kMemWord) {
      CABT_CHECK(f.mask != 0, "memory-flip fault needs a nonzero mask");
      CABT_CHECK((f.addr & 3u) == 0,
                 "memory-flip address is not word-aligned: " << f.addr);
    }
    // Stable insert keeps same-cycle faults in schedule order and keeps the
    // cursor valid: everything at faults_[cursor_..] is still pending.
    auto it = std::upper_bound(
        faults_.begin() + static_cast<ptrdiff_t>(cursor_), faults_.end(), f,
        [](const CoreFault& a, const CoreFault& b) { return a.cycle < b.cycle; });
    faults_.insert(it, f);
    next_due_ = faults_[cursor_].cycle;
  }

  /// Due-time ladder: one compare on the boundary fast path.
  [[nodiscard]] bool due(uint64_t now) const { return now >= next_due_; }

  /// Consumes and returns the next fault with cycle <= now, or nullptr.
  /// Consumed faults never re-fire (not even after snapshot restore).
  const CoreFault* take(uint64_t now) {
    if (now < next_due_ || cursor_ >= faults_.size()) {
      return nullptr;
    }
    const CoreFault* f = &faults_[cursor_++];
    next_due_ = cursor_ < faults_.size() ? faults_[cursor_].cycle : kNever;
    return f;
  }

  void recordFired(const FiredFault& rec) { fired_.push_back(rec); }

  [[nodiscard]] const std::vector<FiredFault>& fired() const { return fired_; }
  [[nodiscard]] size_t scheduled() const { return faults_.size(); }
  [[nodiscard]] size_t pending() const { return faults_.size() - cursor_; }

 private:
  std::vector<CoreFault> faults_;  // sorted by cycle from cursor_ on
  size_t cursor_ = 0;
  uint64_t next_due_ = kNever;
  std::vector<FiredFault> fired_;
};

}  // namespace cabt::fi
