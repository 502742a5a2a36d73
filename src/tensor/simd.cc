#include "tensor/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "tensor/kernels.h"

#if SOFA_SIMD_COMPILED_AVX2
#include <immintrin.h>
#endif

// This translation unit holds both the scalar baselines and the AVX2
// bodies of the float kernels and is compiled with -ffp-contract=off
// (see src/CMakeLists.txt): if the compiler fused the baseline's
// multiply-add into an FMA on -march=native builds, the separate
// mul/add vector code could no longer be bit-identical to it.

namespace sofa {
namespace simd {

namespace {

Level
detectLevel()
{
#if SOFA_SIMD_COMPILED_AVX2
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

Level
clampToDetected(Level level)
{
    return static_cast<int>(level) <= static_cast<int>(detected())
               ? level
               : detected();
}

Level
initialLevel()
{
    const char *var = "SOFA_SIMD";
    Level level = Level::Scalar;
    try {
        if (!parseLevel(std::getenv(var), &level))
            return detected();
    } catch (const std::invalid_argument &e) {
        fatal("%s: %s", var, e.what());
    }
    return clampToDetected(level);
}

/** Active level; -1 = not yet initialized (lazy: the env override is
 * read on first kernel call, after main() had a chance to setenv). */
std::atomic<int> g_level{-1};

} // namespace

Level
detected()
{
    static const Level level = detectLevel();
    return level;
}

Level
active()
{
    int l = g_level.load(std::memory_order_relaxed);
    if (l < 0) {
        l = static_cast<int>(initialLevel());
        g_level.store(l, std::memory_order_relaxed);
    }
    return static_cast<Level>(l);
}

Level
setLevel(Level level)
{
    const Level eff = clampToDetected(level);
    g_level.store(static_cast<int>(eff), std::memory_order_relaxed);
    return eff;
}

const char *
levelName(Level level)
{
    return level == Level::Avx2 ? "avx2" : "scalar";
}

bool
parseLevel(const char *text, Level *level)
{
    if (text == nullptr || *text == '\0')
        return false;
    for (const Level l : {Level::Scalar, Level::Avx2}) {
        if (std::strcmp(text, levelName(l)) == 0) {
            *level = l;
            return true;
        }
    }
    throw std::invalid_argument(
        std::string("expected 'scalar' or 'avx2', got '") + text + "'");
}

std::size_t
scanSurvivorsScalar(const float *x, std::size_t n, float threshold,
                    std::int32_t *idx_out)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!(x[i] < threshold))
            idx_out[kept++] = static_cast<std::int32_t>(i);
    }
    return kept;
}

#if SOFA_SIMD_COMPILED_AVX2

namespace {

SOFA_TARGET_AVX2 std::size_t
scanSurvivorsAvx2(const float *x, std::size_t n, float threshold,
                  std::int32_t *idx_out)
{
    std::size_t kept = 0;
    std::size_t i = 0;
    const __m256 vthr = _mm256_set1_ps(threshold);
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        // x < threshold (ordered quiet): false for NaN operands, so
        // survivors = ~mask matches the scalar !(x < threshold).
        const int clipped = _mm256_movemask_ps(
            _mm256_cmp_ps(v, vthr, _CMP_LT_OQ));
        unsigned surv = static_cast<unsigned>(~clipped) & 0xffu;
        while (surv) {
            const int lane = __builtin_ctz(surv);
            idx_out[kept++] =
                static_cast<std::int32_t>(i) + lane;
            surv &= surv - 1;
        }
    }
    for (; i < n; ++i) {
        if (!(x[i] < threshold))
            idx_out[kept++] = static_cast<std::int32_t>(i);
    }
    return kept;
}

} // namespace

#endif // SOFA_SIMD_COMPILED_AVX2

std::size_t
scanSurvivors(const float *x, std::size_t n, float threshold,
              std::int32_t *idx_out)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (active() == Level::Avx2)
        return scanSurvivorsAvx2(x, n, threshold, idx_out);
#endif
    return scanSurvivorsScalar(x, n, threshold, idx_out);
}

} // namespace simd

double
dotBlockScalar(const float *a, const float *b, std::size_t n)
{
    double s[8] = {0.0};
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int l = 0; l < 8; ++l)
            s[l] += static_cast<double>(a[i + l]) * b[i + l];
    double tot = 0.0;
    for (int l = 0; l < 8; ++l)
        tot += s[l];
    for (; i < n; ++i)
        tot += static_cast<double>(a[i]) * b[i];
    return tot;
}

void
minmaxBlockScalar(const float *a, std::size_t n, float *min_out,
                  float *max_out)
{
    SOFA_ASSERT(n >= 1);
    float mn[8], mx[8];
    for (int l = 0; l < 8; ++l) {
        mn[l] = a[0];
        mx[l] = a[0];
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (int l = 0; l < 8; ++l) {
            mn[l] = a[i + l] < mn[l] ? a[i + l] : mn[l];
            mx[l] = a[i + l] > mx[l] ? a[i + l] : mx[l];
        }
    }
    float tmn = mn[0], tmx = mx[0];
    for (int l = 1; l < 8; ++l) {
        tmn = mn[l] < tmn ? mn[l] : tmn;
        tmx = mx[l] > tmx ? mx[l] : tmx;
    }
    for (; i < n; ++i) {
        tmn = a[i] < tmn ? a[i] : tmn;
        tmx = a[i] > tmx ? a[i] : tmx;
    }
    *min_out = tmn;
    *max_out = tmx;
}

#if SOFA_SIMD_COMPILED_AVX2

namespace {

/**
 * AVX2 dotBlock: acc0/acc1 are the scalar kernel's s[0..3]/s[4..7]
 * double lanes. cvtps_pd is exact, and mul_pd + add_pd round exactly
 * where the (uncontracted) scalar multiply-then-add rounds, so every
 * lane holds the identical bit pattern; the reduction then reuses the
 * scalar lane order and tail.
 */
SOFA_TARGET_AVX2 double
dotBlockAvx2(const float *a, const float *b, std::size_t n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        const __m256d alo =
            _mm256_cvtps_pd(_mm256_castps256_ps128(va));
        const __m256d ahi =
            _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
        const __m256d blo =
            _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
        const __m256d bhi =
            _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(alo, blo));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(ahi, bhi));
    }
    alignas(32) double s[8];
    _mm256_store_pd(s, acc0);
    _mm256_store_pd(s + 4, acc1);
    double tot = 0.0;
    for (int l = 0; l < 8; ++l)
        tot += s[l];
    for (; i < n; ++i)
        tot += static_cast<double>(a[i]) * b[i];
    return tot;
}

/**
 * AVX2 minmaxBlock: vminps/vmaxps compute (a op cur) ? a : cur with
 * the second operand returned on NaN — exactly the scalar ternaries —
 * so the running lane vectors equal the scalar mn[8]/mx[8] arrays.
 */
SOFA_TARGET_AVX2 void
minmaxBlockAvx2(const float *a, std::size_t n, float *min_out,
                float *max_out)
{
    SOFA_ASSERT(n >= 1);
    __m256 vmn = _mm256_set1_ps(a[0]);
    __m256 vmx = vmn;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(a + i);
        vmn = _mm256_min_ps(v, vmn);
        vmx = _mm256_max_ps(v, vmx);
    }
    alignas(32) float mn[8], mx[8];
    _mm256_store_ps(mn, vmn);
    _mm256_store_ps(mx, vmx);
    float tmn = mn[0], tmx = mx[0];
    for (int l = 1; l < 8; ++l) {
        tmn = mn[l] < tmn ? mn[l] : tmn;
        tmx = mx[l] > tmx ? mx[l] : tmx;
    }
    for (; i < n; ++i) {
        tmn = a[i] < tmn ? a[i] : tmn;
        tmx = a[i] > tmx ? a[i] : tmx;
    }
    *min_out = tmn;
    *max_out = tmx;
}

} // namespace

#endif // SOFA_SIMD_COMPILED_AVX2

double
dotBlock(const float *a, const float *b, std::size_t n)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2)
        return dotBlockAvx2(a, b, n);
#endif
    return dotBlockScalar(a, b, n);
}

void
minmaxBlock(const float *a, std::size_t n, float *min_out,
            float *max_out)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2) {
        minmaxBlockAvx2(a, n, min_out, max_out);
        return;
    }
#endif
    minmaxBlockScalar(a, n, min_out, max_out);
}

} // namespace sofa
