#include "gdp/common/strings.hpp"

#include <cmath>
#include <cstdio>

namespace gdp {

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string pad(const std::string& text, int width) {
  const std::size_t target = static_cast<std::size_t>(width < 0 ? -width : width);
  if (text.size() >= target) return text;
  const std::string fill(target - text.size(), ' ');
  return width < 0 ? fill + text : text + fill;
}

std::string phil_name(int id) { return "P" + std::to_string(id); }

std::string fork_name(int id) { return "f" + std::to_string(id); }

std::string percent(double fraction) {
  return format_double(fraction * 100.0, 1) + "%";
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

}  // namespace gdp
