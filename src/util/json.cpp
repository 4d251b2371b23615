#include "util/json.hpp"

#include <cstdio>

namespace mahimahi::util {

void append_json_escaped(std::string& out, std::string_view text) {
  std::size_t plain_from = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(text.substr(plain_from, i - plain_from));
    plain_from = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
        out += buffer;
      }
    }
  }
  out.append(text.substr(plain_from));
}

std::string fixed(double value, int precision) {
  char buffer[64];
  const int length =
      std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  if (length < static_cast<int>(sizeof buffer)) {
    return buffer;
  }
  // Magnitudes past ~1e56 need more room; never truncate a number.
  std::string out(static_cast<std::size_t>(length), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", precision, value);
  return out;
}

}  // namespace mahimahi::util
