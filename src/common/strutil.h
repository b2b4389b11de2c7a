// Small string utilities used by the assembler and the XML parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cabt {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a delimiter character; does not trim the pieces.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Splits a line into comma-separated operands, trimming each, honouring
/// brackets so that "[a0] 4" style groups are not broken apart.
std::vector<std::string_view> splitOperands(std::string_view s);

/// Parses a signed integer literal: decimal, 0x hex, or 0b binary, with an
/// optional leading '-'. Throws cabt::Error on malformed input.
int64_t parseInt(std::string_view s);

/// Parses a non-negative integer (a command-line value): decimal, 0x hex
/// or 0b binary digits making up the whole of `s`, at most `max`. Throws
/// cabt::Error naming `what` on a sign, stray characters, an empty
/// string or a value past `max`.
uint64_t parseUnsigned(std::string_view s, std::string_view what,
                       uint64_t max = UINT64_MAX);

/// True when `s` is a valid identifier ([A-Za-z_][A-Za-z0-9_.]*).
bool isIdentifier(std::string_view s);

/// Lower-cases ASCII.
std::string toLower(std::string_view s);

/// printf-style hex formatting of a 32-bit value: "0x%08x".
std::string hex32(uint32_t v);

}  // namespace cabt
