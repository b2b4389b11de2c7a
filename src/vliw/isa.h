// V6X instruction set definition.
//
// V6X is the C6x-flavoured VLIW target ISA of this reproduction (see
// DESIGN.md): two datapaths A and B with four functional units each
// (L1 S1 M1 D1 / L2 S2 M2 D2), 32 registers per file, execute packets of
// up to eight instructions chained by p-bits, predication on A1/A2/B0,
// and — crucially — *no interlocks*: loads have 4 delay slots, multiplies
// 1, branches 5, and the compiler (here: the binary translator's
// scheduler) is responsible for correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace cabt::vliw {

/// Register identifiers: 0..31 = A0..A31, 32..63 = B0..B31.
constexpr int kRegsPerFile = 32;
constexpr uint8_t regA(int n) { return static_cast<uint8_t>(n); }
constexpr uint8_t regB(int n) { return static_cast<uint8_t>(32 + n); }
constexpr bool isFileB(uint8_t reg) { return reg >= 32; }
constexpr int fileIndex(uint8_t reg) { return reg % 32; }
std::string regName(uint8_t reg);

constexpr uint8_t kNoReg = 0xff;

/// Opcodes. The *imm* group uses the 16-bit-immediate encoding format.
enum class VOpc : uint8_t {
  kInvalid = 0,
  // Register format.
  kAdd, kSub, kAnd, kOr, kXor,         // L or S units
  kCmpEq, kCmpNe, kCmpLt, kCmpLtu, kCmpGt, kCmpGtu, kCmpGe, kCmpGeu,  // L units
  kMv,                                 // L or S units
  kShl, kShr, kSar,                    // S units
  kMpy,                                // M units, 1 delay slot
  kLdw, kLdh, kLdhu, kLdb, kLdbu,      // D units, 4 delay slots
  kStw, kSth, kStb,                    // D units
  kBr,                                 // S units, indirect branch, 5 slots
  // Immediate format.
  kMvk,   ///< dst = simm16 (S units)
  kMvkh,  ///< dst = (dst & 0xffff) | (uimm16 << 16) (S units)
  kAddk,  ///< dst += simm16 (S units)
  kB,     ///< PC-relative branch, disp in words, 5 delay slots (S units)
  kNop,   ///< idles imm cycles (imm >= 1); occupies no unit
  kHalt,  ///< stops the simulation (S units)
  kYield, ///< returns control to the debug runtime, resumable (S units)
  kOpcCount,
};

/// Functional unit kinds and full unit ids.
enum class UnitKind : uint8_t { kL = 0, kS = 1, kM = 2, kD = 3 };
struct Unit {
  UnitKind kind = UnitKind::kL;
  uint8_t side = 0;  ///< 0 = datapath A, 1 = datapath B

  [[nodiscard]] int id() const {
    return static_cast<int>(kind) + 4 * side;
  }
  [[nodiscard]] std::string name() const;
  bool operator==(const Unit&) const = default;
};
constexpr int kNumUnits = 8;

/// Predication: condition register + sense. z = true means "execute when
/// the register is zero" ([!reg]).
enum class PredReg : uint8_t { kNone = 0, kA1 = 1, kA2 = 2, kB0 = 3 };
struct Pred {
  PredReg reg = PredReg::kNone;
  bool z = false;

  [[nodiscard]] bool always() const { return reg == PredReg::kNone; }
  [[nodiscard]] uint8_t regId() const;
  bool operator==(const Pred&) const = default;
};

/// One machine operation (pre-encoding form used by the translator's
/// scheduler and by the simulator after decode).
struct MachineOp {
  VOpc opc = VOpc::kInvalid;
  Unit unit;
  Pred pred;
  uint8_t dst = kNoReg;   ///< for stores: the data register
  uint8_t src1 = kNoReg;  ///< for memory ops: the base register
  uint8_t src2 = kNoReg;
  int32_t imm = 0;  ///< immediate / byte offset (memory) / byte disp (kB)

  [[nodiscard]] std::string toString() const;
};

/// Instruction-class queries used by the scheduler and the simulator.
bool isImmFormat(VOpc opc);
bool isLoad(VOpc opc);
bool isStore(VOpc opc);
bool isMem(VOpc opc);
bool isBranch(VOpc opc);  ///< kB or kBr
/// Delay slots: cycles between issue and the result (or redirect).
unsigned delaySlots(VOpc opc);
/// Memory access width in bytes (loads/stores only).
unsigned memAccessSize(VOpc opc);
/// Allowed unit kinds for an opcode (bitmask over UnitKind).
unsigned allowedUnitsMask(VOpc opc);
bool unitAllowed(VOpc opc, UnitKind kind);
const char* mnemonic(VOpc opc);

/// An execute packet: 1..8 ops issued in the same cycle.
struct Packet {
  uint32_t addr = 0;  ///< address of the first instruction word
  std::vector<MachineOp> ops;

  [[nodiscard]] uint32_t sizeBytes() const {
    return static_cast<uint32_t>(ops.size()) * 4;
  }
};

/// Validates intra-packet constraints (unit conflicts, multiple branches,
/// size). Throws cabt::Error on violation.
void validatePacket(const Packet& packet);

/// Encodes a sequence of packets laid out contiguously from `base_addr`;
/// packet addresses are assigned. Returns little-endian bytes.
std::vector<uint8_t> encodeProgram(std::vector<Packet>& packets,
                                   uint32_t base_addr);

/// Decodes an encoded program back into packets. Every packet is checked
/// with validatePacket, so a malformed image (an over-long p-bit chain,
/// a NOP count outside 1..9, a unit conflict) throws cabt::Error here.
std::vector<Packet> decodeProgram(const std::vector<uint8_t>& bytes,
                                  uint32_t base_addr);

}  // namespace cabt::vliw
