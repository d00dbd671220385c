// AVX2 kernel tier: 4 double lanes. This file is compiled with -mavx2 when
// the toolchain targets x86 (see src/CMakeLists.txt); elsewhere the flag is
// absent, __AVX2__ is undefined, and avx2_kernels() reports the tier as
// unavailable. Nothing here executes unless runtime detection (or an
// explicit opt-in clamped by detection) selects the tier, so building the
// code on a non-AVX2 x86 host is safe: the table below is
// constant-initialized (no dynamic initializer runs AVX2 instructions).
#include "radloc/simd/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace radloc::simd {
namespace avx2_impl {

struct VD {
  __m256d v;
};
struct VI {
  __m256i v;
};

constexpr std::size_t kLanes = 4;
constexpr int kFullMask = 0xF;

inline VD vset1(double x) { return {_mm256_set1_pd(x)}; }
inline VD vload(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void vstore(double* p, VD a) { _mm256_storeu_pd(p, a.v); }
inline VD vadd(VD a, VD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VD vsub(VD a, VD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VD vmul(VD a, VD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VD vdiv(VD a, VD b) { return {_mm256_div_pd(a.v, b.v)}; }
inline VD vmax(VD a, VD b) { return {_mm256_max_pd(a.v, b.v)}; }
inline VD vmadd(VD a, VD b, VD c) { return {_mm256_fmadd_pd(a.v, b.v, c.v)}; }
inline VD vcmp_gt(VD a, VD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)}; }
inline VD vcmp_ge(VD a, VD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
inline VD vcmp_lt(VD a, VD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }
inline VD vcmp_le(VD a, VD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)}; }
inline VD vand(VD a, VD b) { return {_mm256_and_pd(a.v, b.v)}; }
inline VD vor(VD a, VD b) { return {_mm256_or_pd(a.v, b.v)}; }
inline VD vblend(VD mask, VD a, VD b) { return {_mm256_blendv_pd(b.v, a.v, mask.v)}; }
inline int vmovemask(VD a) { return _mm256_movemask_pd(a.v); }
inline VI vcasti(VD a) { return {_mm256_castpd_si256(a.v)}; }
inline VD vcastd(VI a) { return {_mm256_castsi256_pd(a.v)}; }
inline VI viadd(VI a, VI b) { return {_mm256_add_epi64(a.v, b.v)}; }
inline VI visub(VI a, VI b) { return {_mm256_sub_epi64(a.v, b.v)}; }
inline VI viand(VI a, VI b) { return {_mm256_and_si256(a.v, b.v)}; }
inline VI vior(VI a, VI b) { return {_mm256_or_si256(a.v, b.v)}; }
inline VI viset1(long long x) { return {_mm256_set1_epi64x(x)}; }
inline VI visll(VI a, int count) { return {_mm256_slli_epi64(a.v, count)}; }
inline VI visrl(VI a, int count) { return {_mm256_srli_epi64(a.v, count)}; }

#include "radloc/simd/kernels_vec.inl"

}  // namespace avx2_impl

namespace {
// Constant-initialized: avx2_kernels() below is called on every host while
// probing availability, so its body must not execute vector instructions —
// returning the address of a compile-time table cannot.
constexpr Kernels kAvx2Table{
    Tier::kAvx2,
    "avx2",
    &avx2_impl::k_poisson_log_pmf_multi,
    &avx2_impl::k_poisson_log_pmf_fused,
    &avx2_impl::k_hypothesis_rates,
    &avx2_impl::k_max_value,
    &avx2_impl::k_exp_shifted,
    &avx2_impl::k_meanshift_profile,
};
}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Table; }

}  // namespace radloc::simd

#else  // built without -mavx2 -mfma: tier unavailable at runtime.

namespace radloc::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace radloc::simd

#endif
