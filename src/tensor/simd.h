/**
 * @file
 * Runtime-dispatched SIMD layer for the hot sparse-kernel loops.
 *
 * Every vector kernel here is written to be *bit-identical* to its
 * scalar baseline: the AVX2 dot product keeps the scalar kernel's
 * eight double partial-sum lanes (two __m256d accumulators) with
 * separate multiply and add — no FMA contraction — and reduces them
 * in the same sequential lane order; the min/max scan maps the scalar
 * ternaries onto vminps/vmaxps, whose NaN semantics match exactly;
 * the survivor scan is a compare + compress whose index order equals
 * the scalar left-to-right filter. The DLZS kernels (core/dlzs.cc)
 * are double GEMMs whose every term and partial sum is an integer
 * below 2^53, hence exact in any order. That
 * bit-exactness is what lets goldens, the determinism tests, and the
 * engine's any-thread-count guarantee survive the vector datapaths
 * (the Occamy lesson: utilization from explicit SIMD, not from
 * relaxed numerics).
 *
 * Dispatch is per-call through an atomic level: detected from the CPU
 * (AVX2 via __builtin_cpu_supports) at first use, overridable by the
 * SOFA_SIMD env var (exactly "scalar" | "avx2"; anything else is
 * fatal, see parseLevel) and by setLevel/ScopedLevel, which benches
 * and the property tests use to time and compare both paths in one
 * process. AVX2 bodies are compiled with per-function
 * target attributes, so portable (non -march=native) builds still
 * dispatch to them at runtime on capable hosts.
 *
 * Units: n / indices are elements; levels are ordered capability
 * tiers (Scalar < Avx2).
 */

#ifndef SOFA_TENSOR_SIMD_H
#define SOFA_TENSOR_SIMD_H

#include <cstddef>
#include <cstdint>

/** True when AVX2 function bodies are compiled in (x86-64 with a
 * compiler that supports per-function target attributes); runtime
 * dispatch still checks the CPU before selecting them. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SOFA_SIMD_COMPILED_AVX2 1
#define SOFA_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define SOFA_SIMD_COMPILED_AVX2 0
#define SOFA_TARGET_AVX2
#endif

namespace sofa {
namespace simd {

/** Instruction-set tiers the dispatcher can select. */
enum class Level : int
{
    Scalar = 0,
    Avx2 = 1,
};

/** Highest level this build + CPU supports. */
Level detected();

/** Level the dispatched kernels currently use. Initialized on first
 * use to detected(), downgraded by SOFA_SIMD=scalar. */
Level active();

/**
 * Set the dispatch level (clamped to detected()); returns the level
 * actually in effect. Kernels observe the change on their next call;
 * callers flip it between runs, not concurrently with them.
 */
Level setLevel(Level level);

/** "scalar" / "avx2". */
const char *levelName(Level level);

/**
 * Parse a SOFA_SIMD value: exactly one of the levelName() spellings.
 * Stores the level and returns true for those; returns false (unset,
 * use detected()) for a null or empty value; throws
 * std::invalid_argument for anything else ("AVX2", "sse", " avx2"),
 * so a malformed value is rejected, never misread.
 */
bool parseLevel(const char *text, Level *level);

/** RAII level override for benches and property tests comparing the
 * scalar and vector paths within one process. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(Level level) : prev_(active())
    {
        setLevel(level);
    }
    ~ScopedLevel() { setLevel(prev_); }
    ScopedLevel(const ScopedLevel &) = delete;
    ScopedLevel &operator=(const ScopedLevel &) = delete;

  private:
    Level prev_;
};

/**
 * Clip-filter survivor scan (the SADS sorter-chunk filter): write the
 * indices i in [0, n) with !(x[i] < threshold) to @p idx_out in
 * ascending order and return how many survived. NaN elements survive
 * (every comparison with NaN is false), matching the scalar filter.
 * Dispatched; Scalar suffix = the baseline the property tests pin.
 */
std::size_t scanSurvivors(const float *x, std::size_t n,
                          float threshold, std::int32_t *idx_out);
std::size_t scanSurvivorsScalar(const float *x, std::size_t n,
                                float threshold,
                                std::int32_t *idx_out);

} // namespace simd
} // namespace sofa

#endif // SOFA_TENSOR_SIMD_H
