#include "fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/strutil.h"
#include "soc/peripherals.h"

namespace cabt::fuzz {

namespace fs = std::filesystem;

namespace {
constexpr const char* kMagic = "cabt-fuzz-seed v2";
constexpr const char* kProgramEnd = "%%";
}  // namespace

bool SeedCase::hasSharedTraffic() const {
  for (const std::string& p : programs) {
    if (p.find("[a5]") != std::string::npos) {
      return true;
    }
  }
  return false;
}

size_t SeedCase::totalLines() const {
  size_t n = 0;
  for (const std::string& p : programs) {
    n += static_cast<size_t>(std::count(p.begin(), p.end(), '\n'));
  }
  return n;
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string serializeSeed(const SeedCase& c) {
  std::ostringstream out;
  out << kMagic << "\n";
  if (!c.note.empty()) {
    out << "note " << c.note << "\n";
  }
  out << "quantum " << c.quantum << "\n";
  if (c.horizon != 0) {
    out << "horizon " << c.horizon << "\n";
  }
  for (const std::string& f : c.faults) {
    out << "fault " << f << "\n";
  }
  for (const std::string& p : c.programs) {
    out << "program\n" << p;
    if (p.empty() || p.back() != '\n') {
      out << "\n";
    }
    out << kProgramEnd << "\n";
  }
  return out.str();
}

SeedCase parseSeed(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  CABT_CHECK(std::getline(in, line) && trim(line) == kMagic,
             "seed file: bad or missing magic line");
  SeedCase c;
  bool have_program = false;
  while (std::getline(in, line)) {
    const std::string_view t = trim(line);
    if (t.empty()) {
      continue;
    }
    const size_t sp = t.find(' ');
    const std::string key(sp == std::string_view::npos ? t : t.substr(0, sp));
    const std::string value(
        sp == std::string_view::npos ? "" : trim(t.substr(sp + 1)));
    if (key == "note") {
      c.note = value;
    } else if (key == "quantum") {
      c.quantum = parseUnsigned(value, "seed file: quantum");
      CABT_CHECK(c.quantum > 0, "seed file: quantum must be positive");
    } else if (key == "horizon") {
      c.horizon = parseUnsigned(value, "seed file: horizon");
    } else if (key == "fault") {
      CABT_CHECK(!value.empty(), "seed file: empty fault spec");
      c.faults.push_back(value);
    } else if (key == "program") {
      std::string body;
      bool terminated = false;
      while (std::getline(in, line)) {
        if (trim(line) == kProgramEnd) {
          terminated = true;
          break;
        }
        body += line;
        body += '\n';
      }
      CABT_CHECK(terminated, "seed file: unterminated program section");
      c.programs.push_back(std::move(body));
      have_program = true;
    } else {
      CABT_FAIL("seed file: unknown key '" << key << "'");
    }
  }
  CABT_CHECK(have_program, "seed file: no program sections");
  soc::checkCoreCount(c.programs.size(), "seed file (a core per program)");
  return c;
}

SeedCase loadSeedFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CABT_CHECK(in.good(), "cannot read seed file: " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parseSeed(buf.str());
}

void saveSeedFile(const SeedCase& c, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CABT_CHECK(out.good(), "cannot write seed file: " << path);
  out << serializeSeed(c);
  CABT_CHECK(out.good(), "write failed: " << path);
}

Corpus::Corpus(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    if (e.is_regular_file() && e.path().extension() == ".seed") {
      paths_.push_back(e.path().string());
    }
  }
  std::sort(paths_.begin(), paths_.end());
}

std::string Corpus::add(const SeedCase& c, const std::string& stem) {
  for (unsigned n = 0; n < 100000; ++n) {
    fs::path p = fs::path(dir_) /
                 (stem + "-" + std::to_string(n) + ".seed");
    if (!fs::exists(p)) {
      saveSeedFile(c, p.string());
      paths_.push_back(p.string());
      std::sort(paths_.begin(), paths_.end());
      return p.string();
    }
  }
  CABT_FAIL("corpus: could not find a fresh name for stem " << stem);
}

}  // namespace cabt::fuzz
