#include "hbguard/net/ip.hpp"

#include <charconv>
#include <cstdio>

namespace hbguard {

namespace {
std::optional<std::uint32_t> parse_octet(std::string_view text) {
  if (text.empty() || text.size() > 3) return std::nullopt;
  std::uint32_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value > 255) return std::nullopt;
  return value;
}
}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  std::uint32_t bits = 0;
  for (int field = 0; field < 4; ++field) {
    // The first three fields end at the next dot; the fourth runs to the
    // end of the text, so a stray dot or trailing byte fails its parse.
    std::size_t end = field < 3 ? text.find('.') : text.size();
    if (end == std::string_view::npos) return std::nullopt;
    auto octet = parse_octet(text.substr(0, end));
    if (!octet) return std::nullopt;
    bits = (bits << 8) | *octet;
    if (field < 3) text.remove_prefix(end + 1);
  }
  return IpAddress(bits);
}

std::string IpAddress::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (bits_ >> 24) & 0xff, (bits_ >> 16) & 0xff,
                (bits_ >> 8) & 0xff, bits_ & 0xff);
  return buf;
}

Prefix::Prefix(IpAddress address, std::uint8_t length)
    : address_(address.bits() & mask_bits(length)), length_(length) {}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto ip = IpAddress::parse(text.substr(0, slash));
  if (!ip) return std::nullopt;
  auto len_text = text.substr(slash + 1);
  std::uint32_t len = 0;
  auto [ptr, ec] = std::from_chars(len_text.data(), len_text.data() + len_text.size(), len);
  if (ec != std::errc{} || ptr != len_text.data() + len_text.size() || len > 32) {
    return std::nullopt;
  }
  return Prefix(*ip, static_cast<std::uint8_t>(len));
}

bool Prefix::contains(IpAddress ip) const {
  return (ip.bits() & mask_bits(length_)) == address_.bits();
}

bool Prefix::covers(const Prefix& other) const {
  return other.length_ >= length_ && contains(other.address_);
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace hbguard
