// Small string utilities shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hbguard {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Parse an unsigned decimal (a control-RPC id, a numeric CLI flag): the
/// whole token must be decimal digits — no sign, no whitespace, no suffix —
/// and fit in 64 bits. nullopt otherwise.
std::optional<std::uint64_t> parse_unsigned(std::string_view token);

/// Parse a fraction in (0, 1] written as a plain decimal or in exponent
/// form ("0.5", "1", "5e-1"). The whole token must be the number; nullopt
/// for anything else, NaN and infinities included.
std::optional<double> parse_fraction(std::string_view token);

/// Render microseconds as a compact human string, e.g. "25s", "4ms", "0.1ms".
std::string format_duration_us(std::int64_t micros);

}  // namespace hbguard
