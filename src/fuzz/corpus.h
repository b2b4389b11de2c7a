// Self-contained fuzz seed cases and the on-disk corpus that holds them
// (DESIGN.md section 13).
//
// A SeedCase is everything needed to re-run one differential candidate
// bit-identically anywhere: the per-core TRC32 assembly sources, the
// board quantum, and the mid-run state mutations as `fi::` fault-spec
// strings ("dreg@800:core=0,index=3,mask=0x10"). The serialized form is
// a line-oriented text file — seed files are regression artifacts meant
// to be read, diffed and checked into tests/fuzz_seeds/, so they favour
// `git diff` over compactness.
//
// Format (magic line first, then keys in any order; unknown keys are
// rejected, and serializeSeed writes them in the order below):
//   cabt-fuzz-seed v2
//   note <free text>            (optional)
//   quantum <cycles>
//   horizon <cycles>            (optional; estimated clean run length)
//   fault <fi spec>             (zero or more)
//   program                     (one or more; body ends at a '%%' line)
//   <assembly lines...>
//   %%
//
// A Corpus is a directory of *.seed files scanned in sorted filename
// order, so every walk over it is deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cabt::fuzz {

struct SeedCase {
  /// One TRC32 assembly source per core (1..3 cores).
  std::vector<std::string> programs;
  /// Board temporal-decoupling quantum (SoC cycles).
  uint64_t quantum = 256;
  /// Estimated clean-run length in SoC cycles (advisory; the mutator
  /// places fault cycles inside [0, horizon)).
  uint64_t horizon = 0;
  /// Mid-run state mutations as fi:: fault-spec strings.
  std::vector<std::string> faults;
  /// Free-form provenance ("bootstrap seed 7", "finding: ...").
  std::string note;

  [[nodiscard]] bool hasSharedTraffic() const;
  /// Total program line count (the minimizer's size measure).
  [[nodiscard]] size_t totalLines() const;
};

/// Serializes to / parses from the format above. parseSeed throws
/// cabt::Error on malformed input (bad magic, unknown key, unterminated
/// program, no programs at all).
std::string serializeSeed(const SeedCase& c);
SeedCase parseSeed(const std::string& text);

/// Program-text line helpers shared by the mutator and the minimizer
/// (lines come back without their '\n'; join restores one per line).
std::vector<std::string> splitLines(const std::string& text);
std::string joinLines(const std::vector<std::string>& lines);

/// File wrappers; loadSeedFile throws cabt::Error when unreadable.
SeedCase loadSeedFile(const std::string& path);
void saveSeedFile(const SeedCase& c, const std::string& path);

/// A directory of seed files. Creating the Corpus scans once; add()
/// writes a new file and records it. Entries keep their paths so
/// findings can name their corpus origin.
class Corpus {
 public:
  /// Scans `dir` (created if absent) for *.seed files, sorted by name.
  explicit Corpus(std::string dir);

  /// Writes `c` as `<stem>-NNN.seed` (NNN picked to be fresh) and
  /// returns the path.
  std::string add(const SeedCase& c, const std::string& stem);

  [[nodiscard]] size_t size() const { return paths_.size(); }
  [[nodiscard]] const std::vector<std::string>& paths() const {
    return paths_;
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::vector<std::string> paths_;
};

}  // namespace cabt::fuzz
