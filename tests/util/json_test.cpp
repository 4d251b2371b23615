#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mahimahi::util {
namespace {

std::string escaped(std::string_view text) {
  std::string out;
  append_json_escaped(out, text);
  return out;
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(escaped("\""), "\\\"");
  EXPECT_EQ(escaped("\\"), "\\\\");
  EXPECT_EQ(escaped("\n"), "\\n");
  EXPECT_EQ(escaped("\r"), "\\r");
  EXPECT_EQ(escaped("\t"), "\\t");
  EXPECT_EQ(escaped("\x01"), "\\u0001");
  EXPECT_EQ(escaped("\x1f"), "\\u001f");
  EXPECT_EQ(escaped(std::string_view{"\0", 1}), "\\u0000");
}

TEST(JsonEscape, PlainTextPassesThroughUnchanged) {
  const std::string plain =
      " !#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`"
      "abcdefghijklmnopqrstuvwxyz{|}~";
  EXPECT_EQ(escaped(plain), plain);
  EXPECT_EQ(escaped("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
  EXPECT_EQ(escaped(""), "");
}

TEST(JsonEscape, AppendsInPlaceAroundPlainRuns) {
  std::string out = "[\"";
  append_json_escaped(out, "say \"hi\"\tnow");
  out += "\"]";
  EXPECT_EQ(out, "[\"say \\\"hi\\\"\\tnow\"]");
}

TEST(Fixed, PrintsFixedPrecision) {
  EXPECT_EQ(fixed(1.5), "1.500000");
  EXPECT_EQ(fixed(2.0 / 3.0, 3), "0.667");
  EXPECT_EQ(fixed(1234.5678, 1), "1234.6");
  EXPECT_EQ(fixed(0.5, 0), "0");  // round-half-even, as printf does
  EXPECT_EQ(fixed(-0.25, 2), "-0.25");
}

TEST(Fixed, LargeMagnitudesPrintInFull) {
  // 2^240 = 1766847064...1292619776, 73 digits: more than a small stack
  // buffer holds.
  const std::string big = fixed(std::ldexp(1.0, 240), 0);
  EXPECT_EQ(big.size(), 73u);
  EXPECT_EQ(big.substr(0, 10), "1766847064");
  EXPECT_EQ(big.substr(63), "1292619776");
  EXPECT_EQ(fixed(-std::ldexp(1.0, 240), 1), "-" + big + ".0");
}

}  // namespace
}  // namespace mahimahi::util
