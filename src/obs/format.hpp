// Byte-stable text rendering shared by every obs output: the Chrome trace,
// the JSONL and Prometheus exports, watchdog and flight-recorder entries,
// and the sched layer's canonical protocol history.
#pragma once

#include <string>
#include <string_view>

#include "util/common.hpp"

namespace hemo::obs {

/// Deterministic numeric rendering (%.9g): exact for the virtual clock and
/// dollar values the engine produces, and the same bytes for the same
/// double on every run.
[[nodiscard]] std::string num(real_t value);

/// Appends `text` to `out` as the contents of a JSON string: quote and
/// backslash escaped, control characters as \u00XX.
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace hemo::obs
