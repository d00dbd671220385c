// Workload definitions and seeded feed generation for the end-to-end
// service benchmark (README.md has the rationale for each workload).
//
// Everything a run offers the service is generated here, before timing
// starts: the readings (Poisson draws against the TRUE environment — the
// only place the radiation model runs with obstacles), their due times, the
// malformed-reading injections and the estimate-query schedule. The same
// (workload, seed, seconds) always yields the same feed; fingerprint()
// hashes it so a test can pin that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "radloc/eval/scenarios.hpp"
#include "radloc/service/session_manager.hpp"

namespace e2e {

/// Open loop: readings are offered on a fixed schedule whatever the service
/// does. Closed loop: one tick is offered, drained, and only then the next.
enum class Loop : std::uint8_t { kOpen, kClosed };

/// One offered reading.
struct Event {
  std::int64_t due_ns = 0;  ///< offset from the run's start (open loop only)
  std::uint32_t session = 0;
  std::uint32_t tick = 0;
  bool malformed = false;   ///< injected fault; ingest must reject it
  radloc::SessionReading reading;
};

/// One estimate() query. Open loop: due at `due_ns`. Closed loop: due as
/// soon as tick `tick` has been applied.
struct Query {
  std::int64_t due_ns = 0;
  std::uint32_t session = 0;
  std::uint32_t tick = 0;
};

struct Feed {
  std::vector<Event> events;  ///< schedule order (by due time, or by tick)
  std::vector<Query> queries;
  /// Closed loop: events of tick t are [tick_begin[t], tick_begin[t + 1]).
  std::vector<std::size_t> tick_begin;
  std::size_t malformed = 0;  ///< injected malformed readings
};

struct Workload {
  Workload(std::string n, radloc::Scenario s) : name(std::move(n)), scenario(std::move(s)) {}

  std::string name;
  radloc::Scenario scenario;
  Loop loop = Loop::kOpen;
  std::size_t sessions = 1;
  std::size_t ticks = 1;
  double duration_s = 0.0;      ///< open loop schedule length
  /// SessionConfig{} plus the scenario's paper values for num_particles and
  /// fusion_range — nothing else, so a changed default shows up here.
  radloc::SessionConfig config;
  std::vector<std::uint64_t> filter_seeds;  ///< one per session
  Feed feed;
};

/// The workload names, in the order run.sh runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` for a run of about `seconds` seconds. Throws
/// std::invalid_argument on an unknown name or a non-positive duration.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, double seconds);

/// FNV-1a over the feed, the query schedule and the filter seeds.
[[nodiscard]] std::uint64_t fingerprint(const Workload& w);

}  // namespace e2e
