// Fuzz harness for the JSON parser (json/json.cpp), which reads every daemon
// request body: arbitrary bytes must either parse or throw parse_error — any
// other escape (crash, sanitizer report, foreign exception) is a real bug.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "json/json.hpp"
#include "util/errors.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string_view text(reinterpret_cast<const char*>(data), size);
    try {
        // Whatever parses is also written back, as the daemon echoes values.
        (void)aalwines::json::write(aalwines::json::parse(text), 2);
    } catch (const aalwines::parse_error&) {
        // malformed JSON: the expected rejection path
    }
    return 0;
}
