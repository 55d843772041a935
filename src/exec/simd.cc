#include "exec/simd.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace membw {

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Avx2:
        return "avx2";
    case SimdTier::Sse2:
        return "sse2";
    case SimdTier::Scalar:
        break;
    }
    return "scalar";
}

namespace {

SimdTier
detectTier()
{
#if MEMBW_SIMD_X86
    SimdTier best = SimdTier::Sse2; // x86-64 baseline
    if (__builtin_cpu_supports("avx2"))
        best = SimdTier::Avx2;
#else
    SimdTier best = SimdTier::Scalar;
#endif
    // The environment override only clamps *down*: requesting a tier
    // the host lacks (or a name we don't know) is ignored rather
    // than risking an illegal-instruction trap.
    if (const char *env = std::getenv("MEMBW_SIMD")) {
        const std::string v = env;
        if (v == "scalar")
            best = SimdTier::Scalar;
        else if (v == "sse2")
            best = std::min(best, SimdTier::Sse2);
        else if (v == "avx2")
            best = std::min(best, SimdTier::Avx2);
    }
    return best;
}

} // namespace

SimdTier
simdTier()
{
    static const SimdTier tier = detectTier();
    return tier;
}

} // namespace membw
