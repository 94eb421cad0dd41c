// Fuzz harness for the Topology Zoo GML loader (io/gml.cpp), which reads
// `--gml` files and the daemon's `POST /networks` GML documents: arbitrary
// bytes must either load or throw parse_error/model_error.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "io/formats.hpp"
#include "util/errors.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string_view document(reinterpret_cast<const char*>(data), size);
    try {
        std::string name;
        (void)aalwines::io::read_gml(document, &name);
    } catch (const aalwines::parse_error&) {
        // not GML
    } catch (const aalwines::model_error&) {
        // GML, but not a topology
    }
    return 0;
}
