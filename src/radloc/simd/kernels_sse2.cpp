// SSE2 kernel tier: 2 double lanes. Compiled into every build; the vector
// body only exists when the compiler targets x86 with SSE2 (always true for
// x86-64), otherwise sse2_kernels() reports the tier as unavailable and
// dispatch falls back to scalar.
#include "radloc/simd/simd.hpp"

#if defined(__SSE2__) || defined(_M_X64)

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace radloc::simd {
namespace sse2_impl {

struct VD {
  __m128d v;
};
struct VI {
  __m128i v;
};

constexpr std::size_t kLanes = 2;
constexpr int kFullMask = 0x3;

inline VD vset1(double x) { return {_mm_set1_pd(x)}; }
inline VD vload(const double* p) { return {_mm_loadu_pd(p)}; }
inline void vstore(double* p, VD a) { _mm_storeu_pd(p, a.v); }
inline VD vadd(VD a, VD b) { return {_mm_add_pd(a.v, b.v)}; }
inline VD vsub(VD a, VD b) { return {_mm_sub_pd(a.v, b.v)}; }
inline VD vmul(VD a, VD b) { return {_mm_mul_pd(a.v, b.v)}; }
inline VD vdiv(VD a, VD b) { return {_mm_div_pd(a.v, b.v)}; }
inline VD vmax(VD a, VD b) { return {_mm_max_pd(a.v, b.v)}; }
inline VD vmadd(VD a, VD b, VD c) { return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)}; }
inline VD vcmp_gt(VD a, VD b) { return {_mm_cmpgt_pd(a.v, b.v)}; }
inline VD vcmp_ge(VD a, VD b) { return {_mm_cmpge_pd(a.v, b.v)}; }
inline VD vcmp_lt(VD a, VD b) { return {_mm_cmplt_pd(a.v, b.v)}; }
inline VD vcmp_le(VD a, VD b) { return {_mm_cmple_pd(a.v, b.v)}; }
inline VD vand(VD a, VD b) { return {_mm_and_pd(a.v, b.v)}; }
inline VD vor(VD a, VD b) { return {_mm_or_pd(a.v, b.v)}; }
// mask ? a : b (SSE2 has no blendv; bitwise select on all-ones masks).
inline VD vblend(VD mask, VD a, VD b) {
  return {_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v))};
}
inline int vmovemask(VD a) { return _mm_movemask_pd(a.v); }
inline VI vcasti(VD a) { return {_mm_castpd_si128(a.v)}; }
inline VD vcastd(VI a) { return {_mm_castsi128_pd(a.v)}; }
inline VI viadd(VI a, VI b) { return {_mm_add_epi64(a.v, b.v)}; }
inline VI visub(VI a, VI b) { return {_mm_sub_epi64(a.v, b.v)}; }
inline VI viand(VI a, VI b) { return {_mm_and_si128(a.v, b.v)}; }
inline VI vior(VI a, VI b) { return {_mm_or_si128(a.v, b.v)}; }
inline VI viset1(long long x) { return {_mm_set1_epi64x(x)}; }
inline VI visll(VI a, int count) { return {_mm_slli_epi64(a.v, count)}; }
inline VI visrl(VI a, int count) { return {_mm_srli_epi64(a.v, count)}; }

#include "radloc/simd/kernels_vec.inl"

}  // namespace sse2_impl

namespace {
constexpr Kernels kSse2Table{
    Tier::kSse2,
    "sse2",
    &sse2_impl::k_poisson_log_pmf_multi,
    &sse2_impl::k_poisson_log_pmf_fused,
    &sse2_impl::k_hypothesis_rates,
    &sse2_impl::k_max_value,
    &sse2_impl::k_exp_shifted,
    &sse2_impl::k_meanshift_moments,
};
}  // namespace

const Kernels* sse2_kernels() { return &kSse2Table; }

}  // namespace radloc::simd

#else  // non-x86 build: tier unavailable, dispatch stays scalar-only.

namespace radloc::simd {
const Kernels* sse2_kernels() { return nullptr; }
}  // namespace radloc::simd

#endif
