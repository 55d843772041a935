/**
 * @file
 * Host SIMD tier detection, reported in build info and manifests.
 *
 * Tier selection is a runtime decision (one cpuid-backed check,
 * cached): binaries built with MEMBW_SIMD report the widest tier the
 * host supports, clamped down by the MEMBW_SIMD environment variable
 * (scalar|sse2|avx2).  Builds with -DMEMBW_SIMD=OFF, or on non-x86
 * targets, always report Scalar.  No kernel dispatches on the tier:
 * the ladder kernel is scalar (see ladder_kernel.hh).
 */

#ifndef MEMBW_EXEC_SIMD_HH
#define MEMBW_EXEC_SIMD_HH

#include <cstdint>

#if defined(MEMBW_SIMD_ENABLED) && \
    (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define MEMBW_SIMD_X86 1
#else
#define MEMBW_SIMD_X86 0
#endif

namespace membw {

/** Widest vector extension the host offers, in ascending order. */
enum class SimdTier : std::uint8_t
{
    Scalar = 0, ///< no vector extension detected
    Sse2 = 1,   ///< 128-bit (x86-64 baseline)
    Avx2 = 2,   ///< 256-bit
};

/** Stable lowercase name for reports and logs. */
const char *simdTierName(SimdTier tier);

/**
 * The widest tier this host supports (cached after the first call),
 * clamped down by the MEMBW_SIMD environment variable when set to
 * scalar, sse2, or avx2.  Scalar-only builds always return Scalar.
 */
SimdTier simdTier();

} // namespace membw

#endif // MEMBW_EXEC_SIMD_HH
