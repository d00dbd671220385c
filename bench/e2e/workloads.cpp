#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "radloc/rng/distributions.hpp"
#include "radloc/rng/rng.hpp"
#include "radloc/sensornet/simulator.hpp"

namespace e2e {

namespace {

using radloc::Measurement;
using radloc::Rng;

/// Independent RNG streams derived from the run seed: one feed and one
/// filter seed per session, plus the fault-injection stream.
enum Stream : std::uint64_t { kFeedStream = 1, kFilterStream = 2, kFaultStream = 3 };

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t session, Stream stream) {
  radloc::SplitMix64 sm(seed * 0x100000001B3ULL + session * 0x9E3779B97F4A7C15ULL +
                        (static_cast<std::uint64_t>(stream) << 56));
  return sm.next();
}

/// Closed-loop tick rate used to size wide-area from --seconds: about what
/// one session of Scenario C at NP 15000 sustains on a 4-core x86 host.
constexpr double kWideAreaTicksPerSecond = 24.0;
/// Wide-area queries once every this many ticks: 96 per 20 s run, the
/// estimate answers its accuracy metrics average over.
constexpr std::size_t kWideAreaQueryEvery = 5;

struct OpenShape {
  double tick_hz;
  std::size_t repeats;  ///< consecutive readings per sensor per tick (one burst)
  double query_hz;
  double query_phase;   ///< queries fall evenly in [query_phase, 1) of each tick
  double malformed_frac;
};

radloc::SessionConfig paper_config(const radloc::Scenario& s) {
  radloc::SessionConfig cfg;
  cfg.localizer.filter.num_particles = s.recommended_particles;
  cfg.localizer.filter.fusion_range = s.recommended_fusion_range;
  return cfg;
}

/// Replaces a reading with one of the three malformed shapes ingest must
/// refuse: a NaN count, an unknown sensor id, a negative timestamp.
void corrupt(Event& e, Rng& rng, std::size_t num_sensors) {
  e.malformed = true;
  switch (radloc::uniform_index(rng, 3)) {
    case 0: e.reading.m.cpm = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: e.reading.m.sensor = static_cast<radloc::SensorId>(num_sensors + 1); break;
    default: e.reading.timestamp = -1.0 - e.reading.timestamp; break;
  }
}

/// Open loop, synchronous sampling: at the start of every tick each
/// session's sensors all report (each as a burst of `repeats` back-to-back
/// readings), interleaved across sessions. The queries of a tick fall
/// evenly in its [query_phase, 1) part, round-robin over the sessions.
Feed make_open_feed(const Workload& w, const OpenShape& shape, std::uint64_t seed) {
  const radloc::Scenario& sc = w.scenario;
  const radloc::MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
  const std::size_t n = sc.sensors.size();
  const std::size_t per_session = w.ticks * n * shape.repeats;

  // Each session draws its readings from its own stream in (tick, sensor,
  // repeat) order, so a session's feed does not depend on the interleaving.
  std::vector<std::vector<double>> cpm(w.sessions);
  for (std::size_t k = 0; k < w.sessions; ++k) {
    Rng rng(stream_seed(seed, k, kFeedStream));
    cpm[k].reserve(per_session);
    for (std::size_t t = 0; t < w.ticks; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < shape.repeats; ++r) {
          cpm[k].push_back(sim.sample(rng, static_cast<radloc::SensorId>(i)).cpm);
        }
      }
    }
  }

  Feed feed;
  feed.events.reserve(w.sessions * per_session);
  const auto period_ns = static_cast<std::int64_t>(std::llround(1e9 / shape.tick_hz));
  const auto bursts = static_cast<std::int64_t>(w.sessions * n);
  Rng faults(stream_seed(seed, 0, kFaultStream));
  for (std::size_t t = 0; t < w.ticks; ++t) {
    const std::int64_t due = static_cast<std::int64_t>(t) * period_ns;
    for (std::int64_t b = 0; b < bursts; ++b) {
      const auto k = static_cast<std::size_t>(b) % w.sessions;
      const auto i = static_cast<std::size_t>(b) / w.sessions;
      for (std::size_t r = 0; r < shape.repeats; ++r) {
        Event e;
        e.due_ns = due;
        e.session = static_cast<std::uint32_t>(k);
        e.tick = static_cast<std::uint32_t>(t);
        e.reading.timestamp = static_cast<double>(due) * 1e-9;
        e.reading.m = Measurement{static_cast<radloc::SensorId>(i),
                                  cpm[k][(t * n + i) * shape.repeats + r]};
        if (shape.malformed_frac > 0.0 && radloc::uniform01(faults) < shape.malformed_frac) {
          corrupt(e, faults, n);
          ++feed.malformed;
        }
        feed.events.push_back(e);
      }
    }
  }

  const auto per_tick = static_cast<std::size_t>(std::llround(shape.query_hz / shape.tick_hz));
  const double spacing = (1.0 - shape.query_phase) / static_cast<double>(per_tick);
  for (std::size_t t = 0; t < w.ticks; ++t) {
    for (std::size_t j = 0; j < per_tick; ++j) {
      const double phase = shape.query_phase + spacing * static_cast<double>(j);
      Query query;
      query.due_ns = static_cast<std::int64_t>(t) * period_ns +
                     std::llround(phase * static_cast<double>(period_ns));
      query.session = static_cast<std::uint32_t>(feed.queries.size() % w.sessions);
      feed.queries.push_back(query);
    }
  }
  return feed;
}

/// Closed loop, one session: each tick is one reading per sensor in a
/// shuffled order (the paper's out-of-order delivery); a query follows
/// every `query_every` ticks.
Feed make_closed_feed(const Workload& w, std::size_t query_every, std::uint64_t seed) {
  const radloc::Scenario& sc = w.scenario;
  const radloc::MeasurementSimulator sim(sc.env, sc.sensors, sc.sources);
  Rng rng(stream_seed(seed, 0, kFeedStream));
  Feed feed;
  for (std::size_t t = 0; t < w.ticks; ++t) {
    feed.tick_begin.push_back(feed.events.size());
    std::vector<Measurement> step = sim.sample_time_step(rng);
    for (std::size_t i = step.size(); i > 1; --i) {
      std::swap(step[i - 1], step[radloc::uniform_index(rng, i)]);
    }
    for (const Measurement& m : step) {
      Event e;
      e.tick = static_cast<std::uint32_t>(t);
      e.reading = radloc::SessionReading{static_cast<double>(t), m};
      feed.events.push_back(e);
    }
    if ((t + 1) % query_every == 0) {
      Query q;
      q.tick = static_cast<std::uint32_t>(t);
      feed.queries.push_back(q);
    }
  }
  feed.tick_begin.push_back(feed.events.size());
  return feed;
}

class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fleet", "wide-area", "console", "dwell-burst"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    throw std::invalid_argument("run length must be a positive number of seconds");
  }
  OpenShape shape{};
  Loop loop = Loop::kOpen;
  std::size_t sessions = 1;
  radloc::Scenario scenario = [&] {
    if (name == "fleet") {
      sessions = 256;
      shape = {1.0, 1, 10.0, 0.6, 0.0};
      return radloc::make_scenario_a(10.0, 5.0, false);
    }
    if (name == "console") {
      sessions = 4;
      shape = {10.0, 1, 100.0, 0.0, 0.0};
      return radloc::make_scenario_a3(10.0, 5.0, true);
    }
    if (name == "dwell-burst") {
      sessions = 32;
      shape = {1.0, 8, 10.0, 0.6, 0.01};
      return radloc::make_scenario_a3(10.0, 5.0, false);
    }
    if (name == "wide-area") {
      loop = Loop::kClosed;
      return radloc::make_scenario_c(5.0, true);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
  }();
  Workload w(name, std::move(scenario));
  w.loop = loop;
  w.sessions = sessions;
  w.config = paper_config(w.scenario);
  for (std::size_t k = 0; k < w.sessions; ++k) {
    w.filter_seeds.push_back(stream_seed(seed, k, kFilterStream));
  }
  if (w.loop == Loop::kClosed) {
    w.ticks = static_cast<std::size_t>(std::max(1.0, std::round(seconds * kWideAreaTicksPerSecond)));
    w.feed = make_closed_feed(w, kWideAreaQueryEvery, seed);
  } else {
    w.ticks = static_cast<std::size_t>(std::max(1.0, std::round(seconds * shape.tick_hz)));
    w.duration_s = static_cast<double>(w.ticks) / shape.tick_hz;
    w.feed = make_open_feed(w, shape, seed);
  }
  return w;
}

std::uint64_t fingerprint(const Workload& w) {
  Fnv1a h;
  for (const Event& e : w.feed.events) {
    h.add(e.due_ns);
    h.add(e.session);
    h.add(e.tick);
    h.add(e.malformed);
    h.add(e.reading.timestamp);
    h.add(e.reading.m.sensor);
    h.add(e.reading.m.cpm);
  }
  for (const Query& q : w.feed.queries) {
    h.add(q.due_ns);
    h.add(q.session);
    h.add(q.tick);
  }
  for (const std::uint64_t s : w.filter_seeds) h.add(s);
  return h.value();
}

}  // namespace e2e
