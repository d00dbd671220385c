// Hand-rolled distributions over the radloc engine.
//
// Every sampler is a free function taking the engine by reference; all are
// deterministic given the engine state (no thread-local caches), which keeps
// multi-trial experiments reproducible.
#pragma once

#include <cstdint>

#include "radloc/common/types.hpp"
#include "radloc/rng/rng.hpp"

namespace radloc {

/// Uniform double in [0, 1).
[[nodiscard]] double uniform01(Rng& rng);

/// Uniform double in [lo, hi). Precondition: lo <= hi.
[[nodiscard]] double uniform(Rng& rng, double lo, double hi);

/// Uniform integer in [0, n). Precondition: n > 0. Uses Lemire rejection to
/// avoid modulo bias.
[[nodiscard]] std::uint64_t uniform_index(Rng& rng, std::uint64_t n);

/// Uniform point inside an axis-aligned area.
[[nodiscard]] Point2 uniform_point(Rng& rng, const AreaBounds& area);

/// Normal deviate via a 128-layer ziggurat (Marsaglia & Tsang 2000): one
/// engine draw per deviate about 98% of the time. The layer tables are built
/// once per process; no state is kept between calls.
[[nodiscard]] double normal(Rng& rng, double mean = 0.0, double stddev = 1.0);

/// Exponential with rate lambda (> 0).
[[nodiscard]] double exponential(Rng& rng, double lambda);

/// Poisson(lambda) sample. Knuth multiplication for lambda < 30, otherwise
/// PTRS transformed rejection (Hoermann 1993); exact for all lambda >= 0.
[[nodiscard]] std::uint64_t poisson(Rng& rng, double lambda);

}  // namespace radloc
