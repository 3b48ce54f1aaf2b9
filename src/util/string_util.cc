#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace turl {

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(delim, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string StripAscii(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  // Single-row DP; b is the shorter string.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t next = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

std::string NormalizeSurface(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool last_space = true;  // Suppress leading spaces.
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      out += static_cast<char>(std::tolower(c));
      last_space = false;
    } else if (std::isspace(c) || std::ispunct(c)) {
      if (!last_space) {
        out += ' ';
        last_space = true;
      }
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

bool ParseIntInRange(const char* s, long min_value, long max_value,
                     long* out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || value < min_value ||
      value > max_value) {
    return false;
  }
  *out = value;
  return true;
}

int EnvInt(const char* name, int fallback, int min_value, int max_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  long parsed = 0;
  if (!ParseIntInRange(value, min_value, max_value, &parsed)) {
    TURL_LOG(Warning) << name << "=" << value << " is not an integer in ["
                      << min_value << ", " << max_value << "]; using "
                      << fallback;
    return fallback;
  }
  return static_cast<int>(parsed);
}

EnvSwitch ReadEnvSwitch(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return EnvSwitch::kUnset;
  if (std::strcmp(value, "1") == 0) return EnvSwitch::kOn;
  if (std::strcmp(value, "0") == 0) return EnvSwitch::kOff;
  TURL_LOG(Warning) << name << "=" << value
                    << " is not 0 or 1; keeping the default";
  return EnvSwitch::kUnset;
}

}  // namespace turl
