#include "obs/format.hpp"

#include <cstdio>

namespace hemo::obs {

std::string num(real_t value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
}

}  // namespace hemo::obs
