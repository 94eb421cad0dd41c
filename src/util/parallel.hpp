#pragma once
// The one worker pool of the library: independent items spread over a few
// threads (batch queries, sweep chains, a daemon batch /query).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace aalwines::util {

/// The number of workers parallel_for runs `count` items on when asked for
/// `jobs` (0 = the hardware concurrency): never more than the items.
[[nodiscard]] inline std::size_t worker_count(std::size_t count, std::size_t jobs) {
    if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, std::min(jobs, count));
}

/// Call body(worker, index) once for every index in [0, count), on
/// worker_count(count, jobs) workers numbered from 0; inline on the calling
/// thread when that is one.  Returns once every call has returned.
///
/// Concurrency contract (no mutex on purpose): `next` is the only shared
/// mutable word — a relaxed fetch_add hands each worker a distinct index, so
/// a slot indexed by `index` (or by `worker`) has exactly one writer.  The
/// joins publish those writes to the caller.
template <class Body>
void parallel_for(std::size_t count, std::size_t jobs, Body&& body) {
    std::atomic<std::size_t> next{0};
    const auto run = [&](std::size_t worker) {
        for (auto index = next.fetch_add(1, std::memory_order_relaxed); index < count;
             index = next.fetch_add(1, std::memory_order_relaxed))
            body(worker, index);
    };
    const auto workers = worker_count(count, jobs);
    if (workers == 1) {
        run(0);
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t worker = 0; worker < workers; ++worker) threads.emplace_back(run, worker);
    for (auto& thread : threads) thread.join();
}

} // namespace aalwines::util
