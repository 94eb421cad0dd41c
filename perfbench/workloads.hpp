#pragma once
// The benchmark's three workloads (README.md explains why each exists).
// With args.trace false a run reports the end-to-end metrics; with it set,
// the per-layer metrics of the traced run.

#include "harness.hpp"

namespace perfbench {

[[nodiscard]] Result run_oneshot(const Args& args);
[[nodiscard]] Result run_serve(const Args& args);
[[nodiscard]] Result run_whatif(const Args& args);

} // namespace perfbench
