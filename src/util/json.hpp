#pragma once

#include <string>
#include <string_view>

namespace mahimahi::util {

// The two syntax decisions every JSON artifact in the repo shares. Each
// emitter lays out its own document; how a string or a double is spelled
// is decided here and nowhere else.

/// Append `text` to `out` escaped for the inside of a JSON string literal
/// (the caller writes the quotes). `"` and `\` get a backslash; newline,
/// carriage return and tab become \n, \r and \t; any other byte below 0x20
/// becomes \u00xx. Every other byte passes through, so UTF-8 stays UTF-8.
void append_json_escaped(std::string& out, std::string_view text);

/// `value` as printf "%.*f" prints it: fixed notation with `precision`
/// digits after the point. A pure function of the value, so equal results
/// serialize to byte-identical text. CSV and text reports use it too.
[[nodiscard]] std::string fixed(double value, int precision = 6);

}  // namespace mahimahi::util
