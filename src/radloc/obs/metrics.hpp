// Lock-cheap metrics registry — the unified observability layer's
// instrument store (DESIGN.md §5.10).
//
// Three instrument kinds, all designed so the HOT PATH is a relaxed atomic
// add (or a relaxed store) with no locks and no allocation:
//
//   Counter    monotone event tally, sharded across cache-line-padded
//              thread-local slots so concurrent drains never contend on one
//              cache line; summed on read.
//   Gauge      last-value double (relaxed store/load); a pull-style
//              CallbackGauge variant reads through a user function at
//              snapshot time (only for accessors that are themselves
//              thread-safe, e.g. ThreadPool counters).
//   Histogram  fixed-bucket log-scale distribution with exact-within-one-
//              bucket quantile queries (p50/p95/p99). Buckets are a fixed
//              atomic array, so observe() never allocates — the per-reading
//              drain-latency path stays inside the zero-allocation steady
//              state pinned by tests/test_alloc_steady.cpp.
//
// Instruments are registered by name + labels (session id, sensor id, SIMD
// tier, ...). Registration is mutex-guarded and COLD (session open, tool
// startup); the returned references are stable for the registry's lifetime
// — sessions hold raw pointers and bump them lock-free forever after.
// Exporters (obs/export.hpp) walk the registry via visit() in registration
// order.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace radloc::obs {

/// Label set attached to an instrument. Order-insensitive: the registry
/// canonicalizes by sorting on key, so {a,b} and {b,a} name one instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event counter. add() is a relaxed fetch_add on a thread-local
/// shard (cache-line padded), so writers on different threads never bounce
/// one cache line; value() sums the shards — monotone but only
/// eventually-consistent mid-write, which is exactly the Prometheus counter
/// contract.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  /// Threads are assigned shards round-robin on first touch; the index is
  /// per-thread, not per-counter, so every counter a thread bumps uses the
  /// same slot — one hot line per (thread, counter) pair.
  [[nodiscard]] static std::size_t shard_index();

  std::array<Shard, kShards> shards_{};
};

/// Last-value gauge (relaxed store/load of a double).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a Histogram: bucket 0 is the underflow [0, first_bound);
/// buckets 1..n-2 grow geometrically (upper bound of bucket i is
/// first_bound * growth^(i-1)); bucket n-1 is the overflow. The default —
/// sqrt(2) growth from 1 µs over 64 buckets — resolves per-reading drain
/// latencies from sub-µs to ~36 minutes at better than ±21% per bucket.
struct HistogramSpec {
  double first_bound = 1.0;
  double growth = 1.4142135623730951;  // sqrt(2)
  std::size_t buckets = 64;            // total, incl. underflow + overflow
};

/// Fixed-bucket log-scale histogram. observe() is a bucket search plus two
/// relaxed atomic adds — no locks, no allocation (the bucket array is sized
/// at construction). quantile() answers nearest-rank p50/p95/p99 queries at
/// bucket resolution: the returned value is the geometric midpoint of the
/// bucket holding the rank, so it sits within one bucket (a factor of
/// `growth`) of the exact order statistic.
class Histogram {
 public:
  explicit Histogram(const HistogramSpec& spec = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Nearest-rank quantile (q in [0, 1]; same rank rule as the service
  /// layer's old exact-window percentile): the representative value of the
  /// bucket containing the rank-th smallest observation. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  // Bucket introspection, for exporters and the one-bucket regression test.
  [[nodiscard]] std::size_t num_buckets() const { return num_buckets_; }
  [[nodiscard]] std::size_t bucket_index(double v) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket i; +inf for the overflow bucket.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }

 private:
  HistogramSpec spec_;
  std::size_t num_buckets_ = 0;
  std::vector<double> bounds_;  ///< ascending upper bounds, size buckets-1
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kCallbackGauge, kHistogram };

[[nodiscard]] const char* to_string(InstrumentKind kind);

/// Name+labels keyed instrument store. counter()/gauge()/histogram() find or
/// create (idempotent: same name+labels returns the same instrument; a kind
/// mismatch throws std::invalid_argument). All registration calls take the
/// registry mutex — cold by design. The returned references stay valid for
/// the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {},
                       const HistogramSpec& spec = {});
  /// Pull-style gauge: `fn` is invoked at visit/export time. It must be
  /// thread-safe and must NOT register instruments (the registry mutex is
  /// held around the call) nor acquire a lock that a registering thread
  /// holds — keep callbacks to lock-free or leaf-lock accessors.
  void callback_gauge(const std::string& name, Labels labels, std::function<double()> fn);

  struct Instrument {
    std::string name;
    Labels labels;  ///< canonical (key-sorted)
    InstrumentKind kind = InstrumentKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;

    /// Scalar snapshot value (counter total, gauge value, callback result;
    /// histograms report their observation count here).
    [[nodiscard]] double scalar() const;
  };

  /// Walks every instrument in registration order under the registry mutex.
  void visit(const std::function<void(const Instrument&)>& fn) const;

  [[nodiscard]] std::size_t size() const;

 private:
  Instrument& find_or_create(const std::string& name, Labels labels, InstrumentKind kind,
                             const HistogramSpec* spec);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Instrument>> instruments_;  ///< stable addresses
  // Canonical "name\x1fk\x1ev..." -> index into instruments_.
  std::vector<std::pair<std::string, std::size_t>> index_;
};

}  // namespace radloc::obs
