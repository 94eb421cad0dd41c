// Fuzz harness for the query front end (query/parser.cpp, then the NFA
// compilation verify() runs on every parsed query): arbitrary bytes must
// either parse and compile or throw parse_error/model_error — any other
// escape (crash, sanitizer report, foreign exception) is a real bug.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "query/query.hpp"
#include "synthesis/networks.hpp"
#include "util/errors.hpp"
#include "verify/translation.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    static const aalwines::Network network = aalwines::synthesis::make_figure1_network();
    const std::string_view text(reinterpret_cast<const char*>(data), size);
    try {
        const auto query = aalwines::query::parse_query(text, network);
        (void)aalwines::verify::compile_query_nfas(network, query);
    } catch (const aalwines::parse_error&) {
        // malformed query text: the expected rejection path
    } catch (const aalwines::model_error&) {
        // well-formed text referencing things this network does not have
    }
    return 0;
}
