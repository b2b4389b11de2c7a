// In-memory span recorder of the end-to-end benchmark.
//
// Spans are opened around the benchmark's own calls into the library's
// public functions, so the split of host time across the repository's
// modules is measured from outside: nothing in src/ is instrumented.
// Each span has a layer, a start, an end, the span that contains it and
// the id of the pipeline run it belongs to. A layer's self time is its
// spans' durations minus the parts covered by child spans; it is summed
// as spans close, so memory stays bounded however long the run. The
// spans of the first `keep_rounds` rounds are also kept whole and
// written as a Chrome trace-event file (loadable in Perfetto).
//
// A disabled recorder costs one branch per span.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum Layer : uint8_t {
  kRound,       // one round of the workload (root span)
  kRun,         // one pipeline run, board run, seek or fuzz campaign
  kCheck,       // the benchmark's own output checks and count collection
  kTeardown,    // destroying a run's boards, platforms and artifacts
  kCalibrate,   // the host-speed calibration kernel (benchmark code)
  kAcquire,     // core::ProgramArtifactCache::acquire
  kTranslate,   // xlat::translate
  kLoad,        // platform::EmulationPlatform constructor
  kPlatformRun, // platform::EmulationPlatform::run
  kBoardCtor,   // platform::ReferenceBoard constructor
  kBoardRun,    // platform::ReferenceBoard::run / runTo
  kSave,        // snap::save
  kRestore,     // snap::restore
  kDigest,      // snap::digest
  kFarmRun,     // fuzz::Farm::run
  kLayerCount
};

inline const char* layerName(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "bench.round",        "bench.run",          "bench.check",
      "bench.teardown",     "bench.calibrate",    "core.acquire",
      "xlat.translate",     "platform.load",      "platform.run",
      "platform.board_ctor", "platform.board_run", "snap.save",
      "snap.restore",       "snap.digest",        "fuzz.farm_run"};
  return kNames[layer];
}

class Tracer {
 public:
  /// Starts recording; spans of the first `keep_rounds` rounds are kept
  /// for the trace-event file.
  void enable(size_t keep_rounds) {
    on_ = true;
    keep_rounds_ = keep_rounds;
  }
  void disable() { on_ = false; }
  [[nodiscard]] bool on() const { return on_; }

  /// Tags the spans opened from now on with pipeline-run id `id`.
  void setRun(int64_t id) { run_ = id; }

  void open(Layer layer) {
    if (layer == kRound) {
      ++rounds_;
    }
    int32_t kept = -1;
    if (rounds_ <= keep_rounds_) {
      kept = static_cast<int32_t>(kept_.size());
      kept_.push_back(
          {layer, 0, 0, stack_.empty() ? -1 : stack_.back().kept, run_});
    }
    stack_.push_back({layer, kept, 0});
    const int64_t t0 = nowNs();
    stack_.back().t0 = t0;
    if (kept >= 0) {
      kept_.back().t0 = t0;
    }
  }

  void close() {
    const int64_t t1 = nowNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const int64_t dur = t1 - o.t0;
    self_ns_[o.layer] += dur;
    ++calls_[o.layer];
    if (!stack_.empty()) {
      self_ns_[stack_.back().layer] -= dur;
    }
    if (o.kept >= 0) {
      kept_[static_cast<size_t>(o.kept)].t1 = t1;
    }
  }

  /// Self seconds of `layer` over every span closed so far.
  [[nodiscard]] double selfSeconds(Layer layer) const {
    return static_cast<double>(self_ns_[layer]) * 1e-9;
  }
  [[nodiscard]] uint64_t calls(Layer layer) const { return calls_[layer]; }

  /// Writes the kept spans as Chrome trace events ("X" complete events;
  /// args carry the run id and the index of the parent span).
  bool writeChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t base = kept_.empty() ? 0 : kept_.front().t0;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, \"run\": %lld}}%s\n",
                   layerName(k.layer), static_cast<double>(k.t0 - base) * 1e-3,
                   static_cast<double>(k.t1 - k.t0) * 1e-3, i, k.parent,
                   static_cast<long long>(k.run),
                   i + 1 < kept_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Layer layer;
    int32_t kept;
    int64_t t0;
  };
  struct Kept {
    Layer layer;
    int64_t t0;
    int64_t t1;
    int32_t parent;
    int64_t run;
  };

  bool on_ = false;
  size_t keep_rounds_ = 0;
  size_t rounds_ = 0;
  int64_t run_ = -1;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<int64_t, kLayerCount> self_ns_{};
  std::array<uint64_t, kLayerCount> calls_{};
};

/// Scoped span; records nothing while the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : t_(tracer.on() ? &tracer : nullptr) {
    if (t_ != nullptr) {
      t_->open(layer);
    }
  }
  ~Span() {
    if (t_ != nullptr) {
      t_->close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace e2e
