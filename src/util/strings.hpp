#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mahimahi::util {

/// Split on a single-character delimiter. Keeps empty fields
/// ("a,,b" -> {"a", "", "b"}); splitting "" yields {""}.
std::vector<std::string_view> split(std::string_view text, char delim);

/// Split on first occurrence only; returns {text, ""} when absent.
std::pair<std::string_view, std::string_view> split_once(std::string_view text,
                                                         char delim);

std::string_view trim(std::string_view text);

std::string to_lower(std::string_view text);

/// ASCII case-insensitive comparison (HTTP header names).
bool iequals(std::string_view a, std::string_view b);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Lowercase hex of a 64-bit value, zero-padded to 16 digits.
std::string to_hex(std::uint64_t value);

/// Parse a non-negative decimal integer; returns false on any non-digit or
/// overflow. (Strict on purpose: HTTP framing must not guess.)
bool parse_u64(std::string_view text, std::uint64_t& out);

/// Parse hex (no 0x prefix) as used by chunked transfer coding sizes.
bool parse_hex_u64(std::string_view text, std::uint64_t& out);

/// `text` made safe as one unquoted CSV field: every `,`, `\n` and `\r`
/// becomes `;`, so a label can never add a column or a row.
std::string csv_field(std::string text);

/// Human-friendly byte count, e.g. "1.4 KiB".
std::string format_bytes(std::uint64_t bytes);

}  // namespace mahimahi::util
