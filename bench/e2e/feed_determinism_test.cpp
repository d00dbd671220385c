// The benchmark's inputs come from --seed alone: the same seed must give
// the same feed, schedule and filter seeds, and another seed another feed.
#include <cstdio>

#include "workloads.hpp"

int main() {
  int failures = 0;
  for (const std::string& name : e2e::workload_names()) {
    const std::uint64_t a = e2e::fingerprint(e2e::make_workload(name, 7, 1.0));
    const std::uint64_t b = e2e::fingerprint(e2e::make_workload(name, 7, 1.0));
    const std::uint64_t c = e2e::fingerprint(e2e::make_workload(name, 8, 1.0));
    const bool ok = a == b && a != c;
    std::printf("%-12s seed 7: %016llx  again: %016llx  seed 8: %016llx  %s\n", name.c_str(),
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(c), ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
