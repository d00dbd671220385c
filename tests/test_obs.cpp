// Unified observability layer (src/radloc/obs, DESIGN.md §5.10): instrument
// semantics, quantile accuracy, registry keying, exporter goldens, and the
// trace ring. The exporter tests are GOLDEN-FILE style: exact expected text,
// because the Prometheus exposition and JSONL schemas are interfaces that
// downstream scrapers parse — a formatting drift is a breaking change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "radloc/obs/export.hpp"
#include "radloc/obs/metrics.hpp"
#include "radloc/obs/trace.hpp"

namespace radloc::obs {
namespace {

TEST(Counter, AccumulatesAcrossThreads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kAdds = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::size_t i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 42u + kThreads * kAdds);
}

TEST(Gauge, StoresLastValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.25);
  EXPECT_EQ(g.value(), 3.25);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketEdgesAndSpecialValues) {
  // Decade buckets: [0,1) [1,10) [10,100) [100,1000) [1000,inf).
  Histogram h(HistogramSpec{1.0, 10.0, 5});
  ASSERT_EQ(h.num_buckets(), 5u);
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(0.999), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 1u);
  EXPECT_EQ(h.bucket_index(9.999), 1u);
  EXPECT_EQ(h.bucket_index(10.0), 2u);
  EXPECT_EQ(h.bucket_index(999.0), 3u);
  EXPECT_EQ(h.bucket_index(1000.0), 4u);
  EXPECT_EQ(h.bucket_index(1e12), 4u);
  // Malformed observations must not throw on the hot path: NaN and negative
  // land in the underflow bucket.
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(h.bucket_index(-5.0), 0u);
  EXPECT_EQ(h.upper_bound(0), 1.0);
  EXPECT_EQ(h.upper_bound(3), 1000.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(4)));

  h.observe(0.5);
  h.observe(50.0);
  h.observe(1e6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 50.0 + 1e6);
}

TEST(Histogram, RejectsInvalidSpecs) {
  EXPECT_THROW(Histogram(HistogramSpec{0.0, 2.0, 8}), std::invalid_argument);
  EXPECT_THROW(Histogram(HistogramSpec{1.0, 1.0, 8}), std::invalid_argument);
  EXPECT_THROW(Histogram(HistogramSpec{1.0, 2.0, 2}), std::invalid_argument);
}

/// Exact nearest-rank percentile — the rule the seed service layer used for
/// its sliding-window p50/p99 (rank = floor(q * (n-1)) over the sorted
/// samples). The histogram's quantile() must stay within ONE BUCKET of this.
double exact_percentile(std::vector<double> samples, double q) {
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

// Satellite regression for the sliding-window -> histogram migration: on a
// deterministic latency-like sequence, the histogram's p50/p95/p99 agree
// with the exact nearest-rank percentiles to within one bucket (a factor of
// `growth` in either direction — the representative is the geometric
// midpoint of the bucket holding the same rank).
TEST(Histogram, QuantilesWithinOneBucketOfExactNearestRank) {
  const HistogramSpec spec;  // default: sqrt(2) growth from 1 µs
  Histogram h(spec);
  std::vector<double> samples;
  // Deterministic heavy-tailed "drain latency" sequence spanning ~4 decades,
  // kept inside (first_bound, overflow) so the one-bucket bound is exact.
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x % 1000000) / 1000000.0;
    const double v = 2.0 * std::pow(10.0, 4.0 * u * u);  // 2 µs .. ~20 ms
    samples.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = exact_percentile(samples, q);
    const double approx = h.quantile(q);
    EXPECT_LE(approx, exact * spec.growth) << "q=" << q;
    EXPECT_GE(approx, exact / spec.growth) << "q=" << q;
  }
}

TEST(Histogram, QuantileEmptyAndSingle) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.observe(100.0);
  const double q = h.quantile(0.5);
  EXPECT_LE(q, 100.0 * h.spec().growth);
  EXPECT_GE(q, 100.0 / h.spec().growth);
}

TEST(MetricsRegistry, FindOrCreateIsIdempotentAndLabelOrderInsensitive) {
  MetricsRegistry reg;
  Counter& a = reg.counter("c", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg.counter("c", {{"y", "2"}, {"x", "1"}});  // swapped order
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  Counter& c = reg.counter("c", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
  // Same name+labels with a different kind is a registration bug.
  EXPECT_THROW(reg.gauge("c", {{"x", "1"}, {"y", "2"}}), std::invalid_argument);
  // Label VALUES must not collide with a differently-split pair ("ab"+"c"
  // vs "a"+"bc") — the canonical key uses non-printing separators.
  Counter& d = reg.counter("k", {{"ab", "c"}});
  Counter& e = reg.counter("k", {{"a", "bc"}});
  EXPECT_NE(&d, &e);
}

TEST(MetricsRegistry, CallbackGaugeSampledAtVisitTime) {
  MetricsRegistry reg;
  double source = 1.0;
  reg.callback_gauge("pull", {}, [&source] { return source; });
  source = 7.5;
  double seen = 0.0;
  reg.visit([&seen](const MetricsRegistry::Instrument& inst) { seen = inst.scalar(); });
  EXPECT_EQ(seen, 7.5);
}

TEST(PrometheusExport, GoldenExposition) {
  MetricsRegistry reg;
  // Label values exercising every escape: backslash, double-quote, newline.
  reg.counter("requests_total", {{"session", "1"}, {"path", "a\"b\\c\nd"}}).add(3);
  reg.gauge("temp").set(2.5);
  Histogram& h = reg.histogram("lat_us", {}, HistogramSpec{1.0, 10.0, 5});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);

  // Names sorted; labels canonical (key-sorted); histogram buckets are
  // CUMULATIVE with le edges and a +Inf bucket equal to _count.
  const std::string expected =
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 1\n"
      "lat_us_bucket{le=\"10\"} 2\n"
      "lat_us_bucket{le=\"100\"} 3\n"
      "lat_us_bucket{le=\"1000\"} 3\n"
      "lat_us_bucket{le=\"+Inf\"} 4\n"
      "lat_us_sum 5055.5\n"
      "lat_us_count 4\n"
      "# TYPE requests_total counter\n"
      "requests_total{path=\"a\\\"b\\\\c\\nd\",session=\"1\"} 3\n"
      "# TYPE temp gauge\n"
      "temp 2.5\n";
  EXPECT_EQ(prometheus_text(reg), expected);
}

TEST(PrometheusExport, CallbackGaugeTypedAsGauge) {
  MetricsRegistry reg;
  reg.callback_gauge("live", {{"k", "v"}}, [] { return 4.0; });
  EXPECT_EQ(prometheus_text(reg),
            "# TYPE live gauge\n"
            "live{k=\"v\"} 4\n");
}

TEST(JsonlExport, GoldenMetricsLines) {
  MetricsRegistry reg;
  reg.counter("c_total", {{"weird", "a\"b"}}).add(2);
  reg.gauge("g").set(0.25);
  Histogram& h = reg.histogram("h", {{"k", "v"}}, HistogramSpec{1.0, 10.0, 5});
  // All three observations land in the underflow bucket, so every quantile
  // reports its arithmetic midpoint 0.5 — clean golden values.
  h.observe(0.25);
  h.observe(0.5);
  h.observe(0.25);

  std::ostringstream os;
  write_metrics_jsonl(reg, os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"counter\",\"name\":\"c_total\",\"labels\":{\"weird\":\"a\\\"b\"},"
            "\"value\":2}\n"
            "{\"type\":\"gauge\",\"name\":\"g\",\"labels\":{},\"value\":0.25}\n"
            "{\"type\":\"histogram\",\"name\":\"h\",\"labels\":{\"k\":\"v\"},\"count\":3,"
            "\"sum\":1,\"p50\":0.5,\"p95\":0.5,\"p99\":0.5}\n");
}

TEST(JsonlExport, GoldenTraceLines) {
  const std::vector<TraceEvent> events = {
      {3, 0, Stage::kFusionQuery, 1.5, 2.25},
      {3, 1, Stage::kDrain, 10.0, 0.5},
  };
  std::ostringstream os;
  write_trace_jsonl(events, os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"span\",\"session\":3,\"seq\":0,\"stage\":\"fusion_query\","
            "\"start_us\":1.5,\"duration_us\":2.25}\n"
            "{\"type\":\"span\",\"session\":3,\"seq\":1,\"stage\":\"drain\","
            "\"start_us\":10,\"duration_us\":0.5}\n");
}

TEST(TraceSink, SamplingInterval) {
  TraceSink every(16, 1);
  EXPECT_TRUE(every.should_sample());
  EXPECT_TRUE(every.should_sample());

  TraceSink third(16, 3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += third.should_sample() ? 1 : 0;
  EXPECT_EQ(sampled, 3);  // ticks 0, 3, 6

  TraceSink off(16, 0);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(off.should_sample());
}

TEST(TraceSink, RingOverwritesOldestAndDrainsInOrder) {
  TraceSink sink(4, 1);
  for (std::uint64_t i = 0; i < 6; ++i) {
    sink.record(TraceEvent{1, i, Stage::kValidate, static_cast<double>(i), 0.0});
  }
  EXPECT_EQ(sink.recorded(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const std::vector<TraceEvent> events = sink.drain();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].seq, i + 2);  // oldest first
  EXPECT_TRUE(sink.drain().empty());  // drain clears
}

TEST(ScopedSpan, RecordsThroughTracerAndIgnoresNull) {
  TraceSink sink(16, 1);
  StageTracer tracer(&sink, 42);
  {
    const ScopedSpan span(&tracer, Stage::kWeightUpdate);
  }
  {
    const ScopedSpan span(nullptr, Stage::kWeightUpdate);  // must be inert
  }
  StageTracer unbound;  // default tracer: null sink, also inert
  {
    const ScopedSpan span(&unbound, Stage::kResample);
  }
  const std::vector<TraceEvent> events = sink.drain();
#ifdef RADLOC_OBS_OFF
  EXPECT_TRUE(events.empty());
#else
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session, 42u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].stage, Stage::kWeightUpdate);
  EXPECT_GE(events[0].duration_us, 0.0);
#endif
}

TEST(TraceSink, RejectsZeroCapacity) {
  EXPECT_THROW(TraceSink(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace radloc::obs
