// The observability layer (src/obs, DESIGN.md section 11).
//
// Four claims under test:
//   1. The metrics registry snapshots counters/gauges/histograms
//      correctly and dumps deterministic, well-formed JSON.
//   2. The timeline sink produces well-formed Chrome trace-event JSON
//      with the board's lanes named and phases restricted to X/i/M.
//   3. The sampling profiler attributes the irq_ticks hot loop to its
//      known function (`wait`), and its due-time ladder is idempotent.
//   4. The determinism rule holds: enabling every obs sink changes no
//      architectural byte — the whole snap::Observation, digest and full
//      bus transaction log included, is bit-identical with obs on and
//      off, on both ISS engines, and the sample stream itself is
//      bit-identical between the two engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

// ---- a minimal JSON well-formedness checker --------------------------
//
// Enough of RFC 8259 to reject anything a real parser would reject:
// balanced containers, quoted keys, legal literals and numbers. The CI
// smoke additionally runs `python -m json.tool` on exported files; this
// keeps the same property inside the unit suite.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) {
      return false;
    }
    skipWs();
    return pos_ == s_.size();
  }

 private:
  void skipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!consume(*p)) {
        return false;
      }
    }
    return true;
  }
  bool string() {
    if (!consume('"')) {
      return false;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;  // accept any escape pair
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    return consume('"');
  }
  bool number() {
    const size_t start = pos_;
    consume('-');
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    consume('{');
    skipWs();
    if (consume('}')) {
      return true;
    }
    for (;;) {
      skipWs();
      if (!string()) {
        return false;
      }
      skipWs();
      if (!consume(':') || !value()) {
        return false;
      }
      skipWs();
      if (consume('}')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }
  bool array() {
    consume('[');
    skipWs();
    if (consume(']')) {
      return true;
    }
    for (;;) {
      if (!value()) {
        return false;
      }
      skipWs();
      if (consume(']')) {
        return true;
      }
      if (!consume(',')) {
        return false;
      }
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---- metrics registry ------------------------------------------------

TEST(Metrics, CountersGaugesAndLookups) {
  obs::MetricsRegistry reg;
  reg.setCounter("board.core0.iss.blocks", 41);
  reg.setCounter("board.core0.iss.blocks", 42);  // pull model: overwrite
  reg.setGauge("board.kernel.queue_depth", 3.0);
  EXPECT_EQ(reg.counterOr("board.core0.iss.blocks"), 42u);
  EXPECT_EQ(reg.counterOr("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("board.kernel.queue_depth"), 3.0);
  // Kind mismatch falls back too.
  EXPECT_EQ(reg.counterOr("board.kernel.queue_depth", 9), 9u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, HistogramBuckets) {
  obs::MetricsRegistry reg;
  reg.observe("h", 0);
  reg.observe("h", 1);
  reg.observe("h", 2);
  reg.observe("h", 3);
  reg.observe("h", 1024);
  const obs::Histogram* h = reg.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->sum, 1030u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 1024u);
  EXPECT_EQ(h->buckets[0], 1u);   // the zeros bucket
  EXPECT_EQ(h->buckets[1], 1u);   // value 1
  EXPECT_EQ(h->buckets[2], 2u);   // values 2, 3
  EXPECT_EQ(h->buckets[11], 1u);  // 1024 = 2^10
  EXPECT_EQ(obs::Histogram::bucketUpper(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketUpper(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketUpper(2), 3u);
  EXPECT_EQ(obs::Histogram::bucketUpper(11), 2047u);
}

TEST(Metrics, JsonAndTextDumpsAreWellFormedAndSorted) {
  obs::MetricsRegistry reg;
  reg.setCounter("b.second", 2);
  reg.setCounter("a.first", 1);
  reg.setGauge("c.third", 0.5);
  reg.observe("d.hist", 16);
  const std::string json = reg.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  // std::map ordering: a.first precedes b.second in the dump.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  const std::string text = reg.toText();
  EXPECT_NE(text.find("a.first"), std::string::npos);
  EXPECT_NE(text.find("d.hist"), std::string::npos);
}

// ---- trace sink ------------------------------------------------------

TEST(Trace, EventsAndLimits) {
  obs::TraceSink sink(4);
  sink.complete(obs::coreLane(0), "slice", 100, 50);
  sink.instant(obs::coreLane(1), "irq", 120, "vector", 2);
  sink.instant(obs::kSnapLane, "checkpoint", 128);
  EXPECT_EQ(sink.numEvents(), 3u);
  // Drop-oldest: pushing past 2x the cap trims to the cap.
  for (int i = 0; i < 16; ++i) {
    sink.instant(0, "tick", static_cast<uint64_t>(i));
  }
  EXPECT_LE(sink.numEvents(), 8u);
  EXPECT_GT(sink.droppedEvents(), 0u);
  // The most recent events survive.
  EXPECT_EQ(std::string(sink.events().back().name), "tick");
}

TEST(Trace, JsonIsWellFormed) {
  obs::TraceSink sink;
  sink.setThreadName(0, "core0");
  sink.setThreadName(0, "ignored");  // idempotent per tid
  sink.complete(0, "slice", 0, 1024, "quantum", 1024);
  sink.instant(0, "guard_bail", 512, "addr", 0x1000);
  const std::string json = sink.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("core0"), std::string::npos);
  EXPECT_EQ(json.find("ignored"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

// ---- boards under observation ----------------------------------------

struct ObsRun {
  snap::Observation obs;
  /// Per-core (pc, count) sample streams, sorted for comparison.
  std::vector<std::vector<std::pair<uint32_t, uint64_t>>> samples;
  std::string trace_json;
  obs::MetricsRegistry metrics;
};

ObsRun runBoard(const workloads::BoardImages& images, bool threaded,
                bool observe, uint64_t sample_period = 256) {
  platform::BoardConfig base;
  base.iss.max_instructions = 30'000;
  base.quantum = 256;
  const auto owned =
      snap::makeBoard(images, {xlat::DetailLevel::kICache, threaded}, base);
  platform::ReferenceBoard& board = *owned;
  obs::TraceSink sink;
  std::vector<std::unique_ptr<obs::PcSampler>> samplers;
  if (observe) {
    board.setTraceSink(&sink);
    for (size_t i = 0; i < board.numCores(); ++i) {
      samplers.push_back(std::make_unique<obs::PcSampler>(sample_period));
      board.core(i).setSampler(samplers.back().get());
    }
  }
  board.run();
  ObsRun r;
  r.obs = snap::observe(board);
  if (observe) {
    for (size_t i = 0; i < board.numCores(); ++i) {
      std::vector<std::pair<uint32_t, uint64_t>> s(
          samplers[i]->counts().begin(), samplers[i]->counts().end());
      std::sort(s.begin(), s.end());
      r.samples.push_back(std::move(s));
    }
    r.trace_json = sink.toJson();
    board.publishMetrics(r.metrics);
  }
  return r;
}

// The hard requirement: all sinks enabled, nothing architectural moves
// — on both ISS engines.
TEST(ObsDifferential, ObserversNeverPerturbArchitecturalState) {
  const auto images = workloads::BoardImages::family(4);
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "step");
    const ObsRun off = runBoard(images, threaded, false);
    const ObsRun on = runBoard(images, threaded, true);
    EXPECT_EQ(snap::firstMismatch(off.obs, on.obs), "");
    EXPECT_TRUE(JsonChecker(on.trace_json).valid());
    EXPECT_GT(on.metrics.size(), 0u);
  }
}

// The sampler's determinism claim: the sample stream itself (not just
// the architecture) is bit-identical across the two engines, because
// sampling is a pure function of (local time, pc) at block boundaries.
TEST(ObsDifferential, SampleStreamIdenticalAcrossEngines) {
  const auto images = workloads::BoardImages::family(4);
  const ObsRun step = runBoard(images, /*threaded=*/false, true);
  const ObsRun threaded = runBoard(images, /*threaded=*/true, true);
  EXPECT_EQ(threaded.samples, step.samples);
}

TEST(ObsDifferential, TraceContainsBoardLanes) {
  const auto images = workloads::BoardImages::family(4);
  const ObsRun run = runBoard(images, /*threaded=*/true, true);
  EXPECT_NE(run.trace_json.find("\"core0\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"core3\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"snapshots\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"slice\""), std::string::npos);
  // Metrics cover every subsystem the board aggregates.
  EXPECT_GT(run.metrics.counterOr("board.core0.iss.instructions"), 0u);
  EXPECT_GT(run.metrics.counterOr("board.kernel.events_dispatched"), 0u);
  EXPECT_GT(run.metrics.counterOr("board.bus.reads") +
                run.metrics.counterOr("board.bus.writes"),
            0u);
}

// ---- profiler --------------------------------------------------------

TEST(Profiler, DueLadderIsIdempotentAndChargesMissedPeriods) {
  obs::PcSampler s(100);
  s.sample(50, 0x1000);  // before the first due point: nothing
  EXPECT_EQ(s.totalSamples(), 0u);
  s.sample(100, 0x1000);  // exactly due
  EXPECT_EQ(s.totalSamples(), 1u);
  s.sample(100, 0x2000);  // re-observation at the same time: idempotent
  EXPECT_EQ(s.totalSamples(), 1u);
  s.sample(450, 0x3000);  // overshoot: periods 200,300,400 all charge here
  EXPECT_EQ(s.totalSamples(), 4u);
  EXPECT_EQ(s.counts().at(0x3000), 3u);
  s.sample(460, 0x4000);  // next due point is 500 now
  EXPECT_EQ(s.totalSamples(), 4u);
}

TEST(Profiler, AttributesIrqTicksHotLoopToWait) {
  const auto images = workloads::BoardImages::family(1);
  const auto b = snap::makeBoard(images);
  obs::PcSampler sampler(64);
  b->core(0).setSampler(&sampler);
  b->run();
  ASSERT_GT(sampler.totalSamples(), 0u);
  const std::vector<obs::ProfileEntry> entries =
      obs::attributeSamples(sampler, b->iss().symbols());
  ASSERT_FALSE(entries.empty());
  // irq_ticks spends nearly all its time in the `wait` spin loop.
  EXPECT_EQ(entries.front().name, "wait");
  const std::string folded = obs::foldedLines("core0", entries);
  EXPECT_NE(folded.find("core0;wait "), std::string::npos);
  const std::string table = obs::topTable(entries, 5);
  EXPECT_NE(table.find("wait"), std::string::npos);
  EXPECT_NE(table.find("function"), std::string::npos);
}

TEST(Profiler, SymbolizedHotBlocks) {
  const auto images = workloads::BoardImages::family(1);
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  iss::IssConfig config = platform::issConfigFor(xlat::DetailLevel::kICache);
  config.extra_leaders = images.extraLeaders();
  platform::ReferenceBoard b(desc, images.image(0), config);
  b.run();
  const std::vector<iss::HotBlock> hot = b.iss().hotBlocks(5);
  ASSERT_FALSE(hot.empty());
  for (const iss::HotBlock& h : hot) {
    EXPECT_FALSE(h.symbol.empty());
  }
}

}  // namespace
}  // namespace cabt
