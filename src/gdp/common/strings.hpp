// Small string/formatting helpers used by traces, tables and error messages.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gdp {

/// Joins the string forms of `parts` with `sep` ("a, b, c").
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Fixed-width decimal rendering of `value` with `digits` fractional digits.
std::string format_double(double value, int digits);

/// Right-pads (positive width) or left-pads (negative width) to |width| chars.
std::string pad(const std::string& text, int width);

/// "P3" / "f2" — canonical short names used in traces and rendered states.
std::string phil_name(int id);
std::string fork_name(int id);

/// Percentage with one decimal, e.g. 0.2503 -> "25.0%".
std::string percent(double fraction);

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// \n \t \r by name, other control characters as \u00XX.
void append_json_string(std::string& out, std::string_view s);

}  // namespace gdp
