#include "hbguard/util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace hbguard {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::optional<std::uint64_t> parse_unsigned(std::string_view token) {
  // Unsigned from_chars rejects signs and empty input and reports overflow;
  // the end check rejects a digit prefix such as "1x".
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_fraction(std::string_view token) {
  // from_chars accepts "nan" and "inf", which the range test rejects (NaN
  // compares false); it takes no leading '+' or whitespace.
  double value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end || !(value > 0.0 && value <= 1.0)) return std::nullopt;
  return value;
}

std::string format_duration_us(std::int64_t micros) {
  char buf[64];
  if (micros >= 1'000'000 && micros % 1'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(micros / 1'000'000));
  } else if (micros >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fs", static_cast<double>(micros) / 1e6);
  } else if (micros >= 1000 && micros % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms", static_cast<long long>(micros / 1000));
  } else if (micros >= 100) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(micros) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(micros));
  }
  return buf;
}

}  // namespace hbguard
