#include "sat/clause_arena.h"

#include <bit>

#include "common/logging.h"

namespace fermihedral::sat {

ClauseRef
ClauseArena::alloc(std::span<const Lit> literals, bool learnt)
{
    require(!literals.empty(), "allocating an empty clause");
    require(words.size() + headerWords + literals.size() <
                crefUndef,
            "clause arena exceeds 32-bit addressing");
    const auto ref = static_cast<ClauseRef>(words.size());
    words.push_back(
        (static_cast<std::uint32_t>(literals.size()) << 2) |
        (learnt ? 1u : 0u));
    words.push_back(std::bit_cast<std::uint32_t>(0.0f));
    words.push_back(0);
    for (const Lit lit : literals)
        words.push_back(static_cast<std::uint32_t>(lit.code));
    return ref;
}

float
ClauseArena::activity(ClauseRef ref) const
{
    return std::bit_cast<float>(words[ref + 1]);
}

void
ClauseArena::activity(ClauseRef ref, float value)
{
    words[ref + 1] = std::bit_cast<std::uint32_t>(value);
}

void
ClauseArena::free(ClauseRef ref)
{
    wastedWords += size(ref) + headerWords;
}

ClauseRef
ClauseArena::relocate(ClauseRef ref, ClauseArena &to)
{
    if (isRelocated(ref))
        return forward(ref);
    const ClauseRef copy = to.alloc(clause(ref), learnt(ref));
    to.activity(copy, activity(ref));
    to.lbd(copy, lbd(ref));
    // Turn the old header into a forwarding record: the size field
    // is kept so validRef() still recognises the slot, the activity
    // word now holds the destination.
    words[ref] |= 2;
    words[ref + 1] = copy;
    return copy;
}

bool
ClauseArena::validRef(ClauseRef ref) const
{
    if (ref == crefUndef ||
        static_cast<std::size_t>(ref) + headerWords > words.size())
        return false;
    const std::uint32_t len = size(ref);
    return len >= 1 && static_cast<std::size_t>(ref) + headerWords +
                           len <= words.size();
}

} // namespace fermihedral::sat
