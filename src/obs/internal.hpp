// Shared internals of the obs writers. Not part of the public surface.
#pragma once

#include <cstdio>
#include <string_view>

namespace mrbio::obs {

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
void write_json_string(std::FILE* out, std::string_view s);

}  // namespace mrbio::obs
