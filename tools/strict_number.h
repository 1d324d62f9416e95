// Strict numeric parsing for the command-line tools. A value is accepted
// only when the number consumes the whole string, so a typo in a flag
// fails the run instead of silently reading as 0 (what atoi and an
// unchecked strtod give back).

#ifndef DHS_TOOLS_STRICT_NUMBER_H_
#define DHS_TOOLS_STRICT_NUMBER_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace dhs {

/// Parses `text` as a whole decimal number in [min, max] into `*out`.
/// Returns false, leaving `*out` alone, for anything else: no sign, no
/// leading blanks, nothing after the digits, no overflow.
inline bool ParseWholeNumber(const char* text, uint64_t min, uint64_t max,
                             uint64_t* out) {
  // strtoull skips blanks and accepts a sign (negating through the
  // wrap), so only a leading digit is let through to it.
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const uint64_t value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0 || value < min || value > max) return false;
  *out = value;
  return true;
}

/// Parses `text` as a finite probability in [0, 1] into `*out`. Returns
/// false, leaving `*out` alone, for anything else ("0,3", "abc", "nan",
/// "1.5", a leading blank or sign, trailing characters).
inline bool ParseProbability(const char* text, double* out) {
  if ((text[0] < '0' || text[0] > '9') && text[0] != '.') return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value) ||
      value < 0.0 || value > 1.0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace dhs

#endif  // DHS_TOOLS_STRICT_NUMBER_H_
