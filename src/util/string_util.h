#ifndef TURL_UTIL_STRING_UTIL_H_
#define TURL_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace turl {

/// Splits `s` on `delim`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Splits `s` on any whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// ASCII lower-casing (the corpus is ASCII by construction).
std::string ToLowerAscii(std::string_view s);

/// Strips leading/trailing whitespace.
std::string StripAscii(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Levenshtein edit distance; used by the fuzzy KB lookup service.
size_t EditDistance(std::string_view a, std::string_view b);

/// Normalizes a surface form for name matching: lower-case, strip, collapse
/// inner whitespace runs, drop punctuation.
std::string NormalizeSurface(std::string_view s);

/// Formats a double with `digits` decimal places ("%.2f" style).
std::string FormatDouble(double v, int digits);

/// Parses all of `s` as a base-10 integer in [min_value, max_value] — the
/// strict check for numeric TURL_* knobs. False, with `*out` untouched, on
/// empty input, any trailing character, or an out-of-range value.
bool ParseIntInRange(const char* s, long min_value, long max_value,
                     long* out);

/// Reads the integer knob `name` (a TURL_* environment variable) through
/// ParseIntInRange: `fallback` when unset or empty; a value that is not a
/// whole integer in [min_value, max_value] logs a warning and keeps it.
int EnvInt(const char* name, int fallback, int min_value, int max_value);

/// An on/off knob as ReadEnvSwitch reads it.
enum class EnvSwitch { kUnset, kOn, kOff };

/// Reads the on/off knob `name`: unset or empty -> kUnset (keep the
/// default), "1" -> kOn, "0" -> kOff; anything else logs a warning and
/// reads as kUnset.
EnvSwitch ReadEnvSwitch(const char* name);

}  // namespace turl

#endif  // TURL_UTIL_STRING_UTIL_H_
