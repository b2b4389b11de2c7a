#include "fuzz/mutator.h"

#include <algorithm>
#include <cctype>

#include "common/error.h"
#include "common/strutil.h"
#include "fi/fi.h"
#include "trc/assembler.h"

namespace cabt::fuzz {

namespace {

/// "Plain" = safely movable/duplicable: a label-free data or private-
/// memory instruction over d0..d7. Excludes control flow, directives,
/// and anything touching the loop counters d10..d15 — moving those
/// could make a mutant spin forever, and non-halting candidates only
/// waste oracle budget.
bool isPlainLine(const std::string& line) {
  const std::string_view t = trim(line);
  if (t.empty() || line.find(':') != std::string::npos ||
      t.front() == '.') {
    return false;
  }
  const size_t sp = t.find(' ');
  const std::string_view op = sp == std::string_view::npos ? t : t.substr(0, sp);
  static const char* kOps[] = {"add",   "sub",   "and", "or",  "xor",
                               "mul",   "shl",   "sar", "mov16", "add16",
                               "sub16", "movi",  "stw", "ldw", "stb"};
  bool known = false;
  for (const char* o : kOps) {
    known |= op == o;
  }
  if (!known) {
    return false;
  }
  // d10..d15 anywhere in the operands disqualifies the line.
  for (size_t i = 0; i + 2 < line.size(); ++i) {
    if (line[i] == 'd' && line[i + 1] == '1' &&
        std::isdigit(static_cast<unsigned char>(line[i + 2])) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<size_t> plainIndices(const std::vector<std::string>& lines) {
  std::vector<size_t> out;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (isPlainLine(lines[i])) {
      out.push_back(i);
    }
  }
  return out;
}

bool assembles(const std::string& source) {
  try {
    (void)trc::assemble(source);
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

std::optional<SeedCase> Mutator::mutate(const SeedCase& base) {
  for (unsigned attempt = 0; attempt < config_.attempts; ++attempt) {
    SeedCase c = base;
    if (!apply(c)) {
      continue;
    }
    bool ok = true;
    for (const std::string& p : c.programs) {
      ok = ok && assembles(p);
    }
    for (const std::string& f : c.faults) {
      try {
        (void)fi::parseFaultSpec(f);
      } catch (const Error&) {
        ok = false;
      }
    }
    if (ok) {
      return c;
    }
  }
  return std::nullopt;
}

bool Mutator::apply(SeedCase& c) {
  const size_t prog = pick(static_cast<uint32_t>(c.programs.size()));
  Lines lines = splitLines(c.programs[prog]);
  bool changed = false;
  switch (pick(7)) {
    case 0:
      last_op_ = "splice";
      changed = spliceLines(lines);
      break;
    case 1:
      last_op_ = "swap";
      changed = swapLines(lines);
      break;
    case 2:
      last_op_ = "imm";
      changed = perturbImmediate(lines);
      break;
    case 3:
      last_op_ = "reg";
      changed = perturbRegister(lines);
      break;
    case 4:
      last_op_ = "loop_bound";
      changed = reshapeLoopBound(lines);
      break;
    case 5:
      last_op_ = "shared_traffic";
      changed = reshapeSharedTraffic(lines);
      break;
    case 6:
      last_op_ = "state";
      return mutateState(c);
  }
  if (changed) {
    c.programs[prog] = joinLines(lines);
  }
  return changed;
}

bool Mutator::spliceLines(Lines& lines) {
  const std::vector<size_t> plain = plainIndices(lines);
  if (plain.size() < 2) {
    return false;
  }
  // Copy a short run of plain lines in front of another plain line.
  const size_t from = plain[pick(static_cast<uint32_t>(plain.size()))];
  size_t n = 1 + pick(3);
  Lines run;
  for (size_t i = from; i < lines.size() && run.size() < n; ++i) {
    if (!isPlainLine(lines[i])) {
      break;
    }
    run.push_back(lines[i]);
  }
  const size_t to = plain[pick(static_cast<uint32_t>(plain.size()))];
  lines.insert(lines.begin() + static_cast<ptrdiff_t>(to), run.begin(),
               run.end());
  return true;
}

bool Mutator::swapLines(Lines& lines) {
  const std::vector<size_t> plain = plainIndices(lines);
  if (plain.size() < 2) {
    return false;
  }
  const size_t a = plain[pick(static_cast<uint32_t>(plain.size()))];
  const size_t b = plain[pick(static_cast<uint32_t>(plain.size()))];
  if (a == b) {
    return false;
  }
  std::swap(lines[a], lines[b]);
  return true;
}

bool Mutator::perturbImmediate(Lines& lines) {
  // Candidates: `movi dX, N` constants (X <= 7 by the plain-line rule)
  // and `[a0]off` buffer offsets; both stay inside the generator's
  // value/offset ranges so mutants keep the buffer footprint.
  std::vector<size_t> cands;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!isPlainLine(lines[i])) {
      continue;
    }
    if (lines[i].find("movi d") != std::string::npos ||
        lines[i].find("[a0]") != std::string::npos) {
      cands.push_back(i);
    }
  }
  if (cands.empty()) {
    return false;
  }
  std::string& line = lines[cands[pick(static_cast<uint32_t>(cands.size()))]];
  if (line.find("movi d") != std::string::npos) {
    const size_t comma = line.rfind(',');
    line = line.substr(0, comma + 1) + " " + std::to_string(smallInt());
    return true;
  }
  const size_t base = line.find("[a0]");
  const size_t off_start = base + 4;
  const bool byte_op = trim(line).substr(0, 3) == "stb";
  const int off = byte_op ? static_cast<int>(pick(200))
                          : static_cast<int>(pick(60)) * 4;
  line = line.substr(0, off_start) + std::to_string(off);
  return true;
}

bool Mutator::perturbRegister(Lines& lines) {
  const std::vector<size_t> plain = plainIndices(lines);
  if (plain.empty()) {
    return false;
  }
  std::string& line = lines[plain[pick(static_cast<uint32_t>(plain.size()))]];
  // Collect `dN` operand positions (N one digit by the plain-line rule).
  std::vector<size_t> regs;
  for (size_t i = 0; i + 1 < line.size(); ++i) {
    const bool boundary = i == 0 || line[i - 1] == ' ' || line[i - 1] == ',';
    if (boundary && line[i] == 'd' &&
        std::isdigit(static_cast<unsigned char>(line[i + 1])) != 0 &&
        (i + 2 >= line.size() ||
         std::isdigit(static_cast<unsigned char>(line[i + 2])) == 0)) {
      regs.push_back(i + 1);
    }
  }
  if (regs.empty()) {
    return false;
  }
  line[regs[pick(static_cast<uint32_t>(regs.size()))]] =
      static_cast<char>('0' + pick(8));
  return true;
}

bool Mutator::reshapeLoopBound(Lines& lines) {
  std::vector<size_t> cands;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view t = trim(lines[i]);
    if (t.substr(0, 7) == "movi d1" && t.size() > 7 &&
        std::isdigit(static_cast<unsigned char>(t[7])) != 0 && t[7] <= '2') {
      cands.push_back(i);
    }
  }
  if (cands.empty()) {
    return false;
  }
  std::string& line = lines[cands[pick(static_cast<uint32_t>(cands.size()))]];
  const size_t comma = line.rfind(',');
  line = line.substr(0, comma + 1) + " " + std::to_string(2 + pick(30));
  return true;
}

bool Mutator::reshapeSharedTraffic(Lines& lines) {
  std::vector<size_t> shared;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("[a5]") != std::string::npos) {
      shared.push_back(i);
    }
  }
  if (shared.empty()) {
    return false;  // program never set up a5; nothing to reshape
  }
  if (shared.size() > 1 && pick(2) == 0) {
    lines.erase(lines.begin() +
                static_cast<ptrdiff_t>(
                    shared[pick(static_cast<uint32_t>(shared.size()))]));
    return true;
  }
  // Insert a fresh scratch/mailbox access after an existing one (a5 is
  // guaranteed live there).
  std::string line = "        ";
  const int reg = static_cast<int>(pick(8));
  switch (pick(4)) {
    case 0:
      line += "stw d" + std::to_string(reg) + ", [a5]" +
              std::to_string(0x300 + static_cast<int>(pick(16)) * 4);
      break;
    case 1:
      line += "ldw d" + std::to_string(reg) + ", [a5]" +
              std::to_string(0x300 + static_cast<int>(pick(16)) * 4);
      break;
    case 2:
      line += "stw d" + std::to_string(reg) + ", [a5]1536";  // mailbox push
      break;
    case 3:
      line += "ldw d" + std::to_string(reg) + ", [a5]1540";  // status poll
      break;
  }
  const size_t at = shared[pick(static_cast<uint32_t>(shared.size()))];
  lines.insert(lines.begin() + static_cast<ptrdiff_t>(at) + 1, line);
  return true;
}

std::string Mutator::makeFault(const SeedCase& c) {
  const size_t cores = std::min(c.programs.size(), config_.max_cores);
  const size_t core = pick(static_cast<uint32_t>(cores));
  // Land inside the case's estimated clean run (plus slack for short
  // cases). The draw stays 64-bit, so a horizon of 2^32 or more cannot
  // narrow the span to 0.
  const uint64_t span = c.horizon > 100 ? c.horizon : 200;
  const uint64_t cycle = rng_() % span;
  const uint32_t mask = 1u << pick(32);
  switch (pick(4)) {
    case 0:
      return "dreg@" + std::to_string(cycle) +
             ":core=" + std::to_string(core) +
             ",index=" + std::to_string(pick(8)) +
             ",mask=" + std::to_string(mask);
    case 1:
      // Word flips inside the private data buffer (buf sits at the data
      // base; the ISS refuses code addresses anyway).
      return "mem@" + std::to_string(cycle) +
             ":core=" + std::to_string(core) + ",addr=" +
             std::to_string(0xd0000000u + pick(64) * 4) +
             ",mask=" + std::to_string(mask);
    case 2:
      // A bus-error window over one scratch register: an access raises
      // the (masked by default) bus-error IRQ line — a pending-IRQ
      // state mutation through the fi:: grammar.
      return "buserr@" + std::to_string(cycle) +
             ":core=" + std::to_string(core) + ",addr=" +
             std::to_string(0xf0000300u + pick(16) * 4) +
             ",until=" + std::to_string(cycle + 256) + ",count=1";
    default:
      return "dreg@" + std::to_string(cycle) +
             ":core=" + std::to_string(core) + ",index=" +
             std::to_string(pick(8)) + ",mask=" + std::to_string(mask);
  }
}

bool Mutator::mutateState(SeedCase& c) {
  if (!c.faults.empty() && pick(3) == 0) {
    c.faults.erase(c.faults.begin() +
                   static_cast<ptrdiff_t>(
                       pick(static_cast<uint32_t>(c.faults.size()))));
    return true;
  }
  if (c.faults.size() >= 4) {
    return false;  // keep cases small enough to minimize quickly
  }
  c.faults.push_back(makeFault(c));
  return true;
}

}  // namespace cabt::fuzz
