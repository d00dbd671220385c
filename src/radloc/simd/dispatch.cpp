// Runtime tier resolution (AVX2 -> SSE2 -> scalar) and the RADLOC_SIMD knob.
//
// Resolution, in priority order:
//   1. force_tier(t)            — programmatic override (tests, bench sweeps)
//   2. RADLOC_SIMD env variable — scalar | sse2 | avx2 | auto, read once
//   3. default: detected_tier() — the best tier the host runs (an unset,
//                                 empty or unrecognised knob lands here)
// Every request clamps down to detected_tier(): asking for avx2 on an
// SSE2-only host yields sse2; on non-x86, scalar. RADLOC_SIMD=scalar pins
// the portable tier, the reference the vector tiers are tested against.
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "radloc/simd/simd.hpp"

namespace radloc::simd {

// Tier tables, defined in kernels_{scalar,sse2,avx2}.cpp. The vector ones
// return nullptr when the build does not carry that tier.
const Kernels* scalar_kernels();
const Kernels* sse2_kernels();
const Kernels* avx2_kernels();

namespace {

struct EnvResolution {
  Tier tier;
  bool pinned;  // a specific tier was named (not unset / not `auto`)
};

Tier clamp_to_detected(Tier t) {
  const Tier d = detected_tier();
  return static_cast<int>(t) <= static_cast<int>(d) ? t : d;
}

EnvResolution resolve_env() {
  const char* v = std::getenv("RADLOC_SIMD");
  if (v == nullptr || *v == '\0') {
    return {detected_tier(), false};
  }
  if (const auto t = parse_tier(v)) {
    return {clamp_to_detected(*t), std::strcmp(v, "auto") != 0};
  }
  std::fprintf(stderr,
               "radloc: ignoring unrecognized RADLOC_SIMD='%s' "
               "(expected scalar|sse2|avx2|auto); using %s\n",
               v, tier_name(detected_tier()));
  return {detected_tier(), false};
}

const EnvResolution& env_resolution() {
  static const EnvResolution r = resolve_env();
  return r;
}

// -1 = no override; otherwise the forced Tier value.
std::atomic<int> g_forced{-1};

std::array<Kernels, 3> build_tables() {
  const Kernels& s = *scalar_kernels();
  // Every tier fills every slot. A tier not in this build (unreachable via
  // the clamp) repeats the scalar table.
  const auto or_scalar = [&s](const Kernels* k) { return k != nullptr ? *k : s; };
  return {s, or_scalar(sse2_kernels()), or_scalar(avx2_kernels())};
}

}  // namespace

Tier detected_tier() {
  static const Tier t = [] {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    // The avx2 tier fuses its polynomial steps with FMA; every AVX2 part
    // ships FMA, but probe both to keep the guarantee explicit.
    if (avx2_kernels() != nullptr && __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma")) {
      return Tier::kAvx2;
    }
    if (sse2_kernels() != nullptr && __builtin_cpu_supports("sse2")) return Tier::kSse2;
#endif
    return Tier::kScalar;
  }();
  return t;
}

Tier active_tier() {
  const int f = g_forced.load(std::memory_order_relaxed);
  if (f >= 0) return static_cast<Tier>(f);
  return env_resolution().tier;
}

void force_tier(Tier t) {
  g_forced.store(static_cast<int>(clamp_to_detected(t)), std::memory_order_relaxed);
}

void reset_tier() { g_forced.store(-1, std::memory_order_relaxed); }

bool tier_pinned_by_env() { return env_resolution().pinned; }

const Kernels& kernels_for(Tier t) {
  static const std::array<Kernels, 3> tables = build_tables();
  return tables[static_cast<std::size_t>(clamp_to_detected(t))];
}

const Kernels& kernels() { return kernels_for(active_tier()); }

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

std::optional<Tier> parse_tier(const char* s) {
  if (s == nullptr) return std::nullopt;
  if (std::strcmp(s, "scalar") == 0) return Tier::kScalar;
  if (std::strcmp(s, "sse2") == 0) return Tier::kSse2;
  if (std::strcmp(s, "avx2") == 0) return Tier::kAvx2;
  if (std::strcmp(s, "auto") == 0) return detected_tier();
  return std::nullopt;
}

std::vector<Tier> sweep_tiers() {
  if (tier_pinned_by_env()) {
    return {active_tier()};
  }
  std::vector<Tier> tiers;
  for (int t = 0; t <= static_cast<int>(detected_tier()); ++t) {
    tiers.push_back(static_cast<Tier>(t));
  }
  return tiers;
}

}  // namespace radloc::simd
