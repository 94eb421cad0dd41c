#include "verify/batch.hpp"

#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace aalwines::verify {

std::vector<BatchItem> verify_batch(const Network& network,
                                    const std::vector<std::string>& texts,
                                    const VerifyOptions& options, std::size_t jobs) {
    AALWINES_SPAN("verify_batch");
    std::vector<BatchItem> items(texts.size());
    for (std::size_t i = 0; i < texts.size(); ++i) items[i].query_text = texts[i];
    // `network` and `options` are read-only; each item has one writer.
    util::parallel_for(items.size(), jobs, [&](std::size_t, std::size_t index) {
        AALWINES_SPAN("batch_query");
        auto& item = items[index];
        try {
            const auto query = query::parse_query(item.query_text, network);
            item.result = verify(network, query, options);
        } catch (const std::exception& error) {
            item.error = error.what();
        }
    });
    return items;
}

} // namespace aalwines::verify
