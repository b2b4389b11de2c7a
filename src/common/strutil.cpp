#include "common/strutil.h"

#include <cctype>

#include "common/error.h"

namespace cabt {

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> splitOperands(std::string_view s) {
  std::vector<std::string_view> out;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || (s[i] == ',' && depth == 0)) {
      std::string_view piece = trim(s.substr(start, i - start));
      if (!piece.empty()) {
        out.push_back(piece);
      }
      start = i + 1;
    } else if (s[i] == '[') {
      ++depth;
    } else if (s[i] == ']') {
      --depth;
    }
  }
  return out;
}

namespace {

/// Strips a 0x (hex) or 0b (binary) prefix from `s`; returns the base.
int takeBase(std::string_view& s) {
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
    return 16;
  }
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) {
    s.remove_prefix(2);
    return 2;
  }
  return 10;
}

/// The value of digit `c` in `base`, or -1 when it is not one.
int digitValue(char c, int base) {
  int digit = -1;
  if (c >= '0' && c <= '9') {
    digit = c - '0';
  } else if (c >= 'a' && c <= 'f') {
    digit = c - 'a' + 10;
  } else if (c >= 'A' && c <= 'F') {
    digit = c - 'A' + 10;
  }
  return digit < base ? digit : -1;
}

}  // namespace

int64_t parseInt(std::string_view s) {
  s = trim(s);
  CABT_CHECK(!s.empty(), "empty integer literal");
  bool neg = false;
  if (s.front() == '-' || s.front() == '+') {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  CABT_CHECK(!s.empty(), "sign with no digits");
  const int base = takeBase(s);
  uint64_t value = 0;
  for (char c : s) {
    if (c == '_') {
      continue;  // digit group separator
    }
    const int digit = digitValue(c, base);
    CABT_CHECK(digit >= 0, "bad digit '" << c << "' in integer");
    value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
    CABT_CHECK(value <= (uint64_t{1} << 32), "integer literal out of range");
  }
  const int64_t v = static_cast<int64_t>(value);
  return neg ? -v : v;
}

uint64_t parseUnsigned(std::string_view s, std::string_view what,
                       uint64_t max) {
  const std::string_view literal = s;
  const int base = takeBase(s);
  CABT_CHECK(!s.empty(), what << ": '" << literal
                              << "' is not a non-negative integer");
  uint64_t value = 0;
  for (const char c : s) {
    const int digit = digitValue(c, base);
    CABT_CHECK(digit >= 0, what << ": '" << literal
                                << "' is not a non-negative integer");
    const auto d = static_cast<uint64_t>(digit);
    const auto b = static_cast<uint64_t>(base);
    CABT_CHECK(d <= max && value <= (max - d) / b,
               what << ": " << literal << " is out of range (at most " << max
                    << ")");
    value = value * b + d;
  }
  return value;
}

bool isIdentifier(std::string_view s) {
  if (s.empty()) {
    return false;
  }
  const char c0 = s.front();
  if (std::isalpha(static_cast<unsigned char>(c0)) == 0 && c0 != '_') {
    return false;
  }
  for (char c : s.substr(1)) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '.') {
      return false;
    }
  }
  return true;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string hex32(uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace cabt
