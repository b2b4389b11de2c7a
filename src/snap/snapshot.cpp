#include "snap/snapshot.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "common/serial.h"

namespace cabt::snap {

namespace {

constexpr char kMagic[] = "CABTSNAP";
constexpr size_t kMagicSize = 8;

}  // namespace

std::vector<uint8_t> save(const platform::ReferenceBoard& board) {
  serial::Writer w;
  w.bytes(kMagic, kMagicSize);
  w.u32(kFormatVersion);
  w.u32(static_cast<uint32_t>(board.numCores()));

  // Kernel: global time and the per-process activation queue, processes
  // identified by core index (the board's construction order).
  std::unordered_map<sim::Process*, uint32_t> index;
  for (size_t i = 0; i < board.numCores(); ++i) {
    index.emplace(board.process(i), static_cast<uint32_t>(i));
  }
  board.kernel().saveState(w, [&index](sim::Process* p) {
    const auto it = index.find(p);
    CABT_CHECK(it != index.end(),
               "kernel queue holds a process the board does not own");
    return it->second;
  });

  // Bus clock, transaction-log tail, all device state.
  board.board().bus.saveState(w);

  // Per-core ISS state (architectural + micro-architectural + memory).
  for (size_t i = 0; i < board.numCores(); ++i) {
    board.core(i).saveState(w);
  }

  // Integrity footer over everything above.
  const uint64_t sum = serial::fnv1a(w.data());
  w.u64(sum);
  return w.take();
}

void restore(platform::ReferenceBoard& board,
             const std::vector<uint8_t>& data) {
  CABT_CHECK(data.size() > kMagicSize + 4 + 8, "snapshot too short");
  const uint64_t sum = serial::fnv1a(data.data(), data.size() - 8);
  serial::Reader footer(data.data() + data.size() - 8, 8);
  CABT_CHECK(footer.u64() == sum,
             "snapshot integrity check failed (truncated or corrupted)");

  serial::Reader r(data.data(), data.size() - 8);
  char magic[kMagicSize];
  r.bytes(magic, kMagicSize);
  CABT_CHECK(std::equal(magic, magic + kMagicSize, kMagic),
             "not a cabt snapshot (bad magic)");
  const uint32_t version = r.u32();
  CABT_CHECK(version == kFormatVersion,
             "snapshot format v" << version << " is not v" << kFormatVersion);
  const uint32_t cores = r.u32();
  CABT_CHECK(cores == board.numCores(),
             "snapshot has " << cores << " cores, this board has "
                             << board.numCores());

  board.kernel().restoreState(r, [&board](uint32_t i) {
    CABT_CHECK(i < board.numCores(), "process index out of range");
    return board.process(i);
  });
  board.board().bus.restoreState(r);
  for (size_t i = 0; i < board.numCores(); ++i) {
    board.core(i).restoreState(r);
  }
  CABT_CHECK(r.remaining() == 0,
             "snapshot has " << r.remaining() << " unread trailing bytes");
}

uint64_t digest(const platform::ReferenceBoard& board) {
  // One running FNV-1a, chained through every section: the value equals
  // fnv1a over the sections' bytes concatenated, but memory pages are
  // folded in place, never copied into a buffer.
  uint64_t h = serial::kFnvOffset;
  for (size_t i = 0; i < board.numCores(); ++i) {
    h = board.core(i).digestState(h);
  }
  // Bus section: the clock, the log tail and every device's serialized
  // state are all deterministic observables (the same bytes save()
  // writes), so reusing saveState keeps the two definitions aligned.
  serial::Writer w;
  board.board().bus.saveState(w);
  return serial::fnv1a(w.data(), h);
}

void saveFile(const platform::ReferenceBoard& board,
              const std::string& path) {
  const std::vector<uint8_t> data = save(board);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CABT_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  CABT_CHECK(out.good(), "short write to '" << path << "'");
}

void restoreFile(platform::ReferenceBoard& board, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CABT_CHECK(in.good(), "cannot open '" << path << "'");
  std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  restore(board, data);
}

}  // namespace cabt::snap
