// Small string/format helpers (GCC 12 lacks std::format, so benches and
// reports use these instead), plus the strict numeric token parsers every
// text format in the tree uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcfpga {

/// Fixed-precision double formatting ("3.142" for (pi, 3)).
std::string fmt_double(double value, int precision);
/// Percentage formatting: fmt_percent(0.4512, 1) == "45.1%".
std::string fmt_percent(double fraction, int precision = 1);
/// Thousands-separated integer: fmt_count(1234567) == "1,234,567".
std::string fmt_count(std::uint64_t value);
/// Left/right padding to a field width.
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);
/// Joins parts with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

// --- strict numeric token parsing -------------------------------------------
// Unlike istream extraction / std::sto*, these accept EXACTLY one complete
// numeric token: no leading whitespace, no leading '+', no trailing
// garbage ("12abc" is rejected, not parsed as 12), and overflow fails
// instead of wrapping or saturating silently.  Parsers that own line
// numbers (config/serialize) call these and raise their own
// line-numbered InvalidArgument on false.

/// Decimal unsigned 64-bit: digits only.
bool try_parse_u64(std::string_view token, std::uint64_t& out);
/// Decimal signed 64-bit: optional leading '-', then digits.
bool try_parse_i64(std::string_view token, std::int64_t& out);
/// Finite decimal floating point (fixed or scientific); rejects
/// inf/nan/hex forms.
bool try_parse_double(std::string_view token, double& out);

}  // namespace mcfpga
