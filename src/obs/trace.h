// Timeline tracer: Chrome trace-event / Perfetto-compatible JSON
// (DESIGN.md section 11).
//
// The sink collects duration ("X") and instant ("i") events on a set of
// fixed lanes — one per core and one for snapshot activity — with guest
// SoC cycles as the timestamp unit. Writing the sink out
// produces a `{"traceEvents": [...]}` document that ui.perfetto.dev
// (or chrome://tracing) opens directly; the viewer interprets `ts` as
// microseconds, so one "us" on screen is one guest cycle.
//
// The sink is not internally synchronized: one board (and its sink)
// runs on one thread at a time. Event names and arg names must be
// string literals (the sink stores the pointers).
//
// Determinism rule: the sink observes, it never feeds back — no
// simulation component may read it. Disabled cost is one null-pointer
// test per hook.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace cabt::obs {

// Lane (Perfetto "tid") numbering. Cores take lanes [0, 64); snapshot
// activity gets a fixed lane above them.
inline constexpr uint32_t kMaxCoreLanes = 64;
inline constexpr uint32_t kSnapLane = 65;  ///< checkpoint/save/restore

[[nodiscard]] constexpr uint32_t coreLane(size_t core) {
  return static_cast<uint32_t>(core);
}

class TraceSink {
 public:
  struct Event {
    const char* name = "";      ///< static string (never freed)
    char phase = 'X';           ///< 'X' complete, 'i' instant
    uint32_t tid = 0;
    uint64_t ts = 0;            ///< guest SoC cycles
    uint64_t dur = 0;           ///< 'X' only
    const char* arg_name = nullptr;  ///< optional single numeric arg
    uint64_t arg = 0;
  };

  /// `limit` caps retained events (a long run must not grow without
  /// bound); the most recent events win, drops are counted.
  explicit TraceSink(size_t limit = 1u << 20) : limit_(limit) {}

  void complete(uint32_t tid, const char* name, uint64_t ts, uint64_t dur,
                const char* arg_name = nullptr, uint64_t arg = 0) {
    push({name, 'X', tid, ts, dur, arg_name, arg});
  }
  void instant(uint32_t tid, const char* name, uint64_t ts,
               const char* arg_name = nullptr, uint64_t arg = 0) {
    push({name, 'i', tid, ts, 0, arg_name, arg});
  }

  /// Names a lane (emitted as a "thread_name" metadata event).
  /// Idempotent per tid: the first name wins.
  void setThreadName(uint32_t tid, const std::string& name) {
    thread_names_.emplace(tid, name);
  }

  [[nodiscard]] size_t numEvents() const { return events_.size(); }
  [[nodiscard]] uint64_t droppedEvents() const { return dropped_; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  /// Chrome trace-event JSON ({"traceEvents": [...]}).
  void writeJson(std::ostream& out) const;
  [[nodiscard]] std::string toJson() const;

 private:
  void push(const Event& e) {
    events_.push_back(e);
    // Drop-oldest in amortised O(1): erase down to the cap once 2x
    // over (the same trim idiom as the bus transaction log).
    if (limit_ != 0 && events_.size() >= 2 * limit_) {
      const size_t drop = events_.size() - limit_;
      events_.erase(events_.begin(),
                    events_.begin() + static_cast<std::ptrdiff_t>(drop));
      dropped_ += drop;
    }
  }

  size_t limit_;
  uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<uint32_t, std::string> thread_names_;
};

}  // namespace cabt::obs
