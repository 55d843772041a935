#include "mtc/next_use.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/trace_span.hh"

namespace membw {

NextUseTable
makeNextUseTable(const Trace &trace, Bytes blockBytes)
{
    if (!isPowerOfTwo(blockBytes))
        fatal("next-use granularity must be a power of two");
    constexpr VictimKey unranked = std::numeric_limits<VictimKey>::max();
    const std::size_t n = trace.size();
    if (n >= unranked)
        fatal("MTC trace of " + std::to_string(n) +
              " references exceeds the victim key space");

    MEMBW_SPAN_D("mtc.next_use_build",
                 "block=" + std::to_string(blockBytes) +
                     "B refs=" + std::to_string(n));

    auto table = std::make_shared<NextUseKeys>();
    table->blockBytes = blockBytes;
    std::vector<VictimKey> &keys = table->keys;
    keys.resize(n);

    // The distinct blocks in discovery order, each with the position
    // of its last reference, and the next position each is referenced
    // at relative to the position being filled in.
    struct LastUse
    {
        Addr block;
        VictimKey pos;
    };
    std::vector<LastUse> lasts;
    std::vector<VictimKey> nextPos;
    // Open-addressing index into lasts, doubled at half load.  Sized
    // by the distinct blocks, not the references, so the transient
    // memory stays small.
    std::vector<VictimKey> slots(std::size_t{1} << 12, unranked);
    int hashShift = 64 - 12;
    auto slotOf = [&](Addr b) -> VictimKey & {
        std::size_t h = (b * 0x9e3779b97f4a7c15ull) >> hashShift;
        while (slots[h] != unranked && lasts[slots[h]].block != b)
            h = (h + 1) & (slots.size() - 1);
        return slots[h];
    };

    // Walk backwards, so the first sighting of a block is its last
    // reference.  A reference spanning two blocks (which QPT-style
    // word traces never do) takes the earlier next use.
    for (std::size_t i = n; i-- > 0;) {
        const MemRef &ref = trace[i];
        const Addr first = alignDown(ref.addr, blockBytes);
        const Addr last =
            alignDown(ref.addr + ref.size - 1, blockBytes);
        const auto pos = static_cast<VictimKey>(i);

        VictimKey soonest = unranked;
        for (Addr b = first; b <= last; b += blockBytes) {
            VictimKey &slot = slotOf(b);
            if (slot != unranked) {
                soonest = std::min(soonest, nextPos[slot]);
                nextPos[slot] = pos;
            } else {
                if (lasts.size() >= unranked - n)
                    fatal("MTC trace of " + std::to_string(n) +
                          " references exceeds the victim key space");
                slot = static_cast<VictimKey>(lasts.size());
                lasts.push_back({b, pos});
                nextPos.push_back(pos);
                if (2 * lasts.size() > slots.size()) {
                    slots.assign(2 * slots.size(), unranked);
                    --hashShift;
                    for (std::size_t j = 0; j < lasts.size(); ++j)
                        slotOf(lasts[j].block) =
                            static_cast<VictimKey>(j);
                }
            }
            if (b == last)
                break; // guard against address-space wrap
        }
        keys[i] = soonest;
    }
    slots = {};
    nextPos = {};

    // Rank the blocks by address: a stable LSD radix sort, 12 bits
    // per pass, over the bits that differ between blocks.
    Addr varying = 0;
    for (const LastUse &u : lasts)
        varying |= u.block ^ lasts[0].block;
    constexpr int radixBits = 12;
    constexpr Addr radixMask = (Addr{1} << radixBits) - 1;
    std::vector<LastUse> sorted(lasts.size());
    std::vector<VictimKey> count(std::size_t{1} << radixBits);
    for (int shift = varying ? std::countr_zero(varying) : 64;
         shift < 64 && (varying >> shift) != 0; shift += radixBits) {
        std::fill(count.begin(), count.end(), 0);
        for (const LastUse &u : lasts)
            count[(u.block >> shift) & radixMask]++;
        VictimKey sum = 0;
        for (VictimKey &c : count)
            sum += std::exchange(c, sum);
        for (const LastUse &u : lasts)
            sorted[count[(u.block >> shift) & radixMask]++] = u;
        lasts.swap(sorted);
    }

    // A last reference that no spanned block outlives keys on the
    // lowest spanned block's rank.
    table->deadAddrs.resize(lasts.size());
    for (std::size_t rank = 0; rank < lasts.size(); ++rank) {
        const auto [block, pos] = lasts[rank];
        table->deadAddrs[rank] = block;
        keys[pos] = std::min(keys[pos], static_cast<VictimKey>(n + rank));
    }
    return table;
}

} // namespace membw
