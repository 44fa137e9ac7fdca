// Basic string helpers shared across the library.

#ifndef RECON_UTIL_STRING_UTIL_H_
#define RECON_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace recon {

/// ASCII-lowercases a copy of `s`.
std::string ToLower(std::string_view s);

/// ASCII-uppercases a copy of `s`.
std::string ToUpper(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any ASCII whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Splits into maximal alphanumeric token runs, lowercased.
/// "Dong, X." -> {"dong", "x"}.
std::vector<std::string> Tokenize(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character is an ASCII digit (and the string is non-empty).
bool IsDigits(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace recon

#endif  // RECON_UTIL_STRING_UTIL_H_
