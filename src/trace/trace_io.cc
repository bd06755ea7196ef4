#include "trace/trace_io.hh"

#include <unordered_set>

namespace rlr::trace
{

LlcTrace::LlcTrace(std::vector<LlcAccess> accesses)
    : accesses_(std::move(accesses))
{
}

uint64_t
LlcTrace::countType(AccessType type) const
{
    uint64_t n = 0;
    for (const auto &a : accesses_)
        if (a.type == type)
            ++n;
    return n;
}

uint64_t
LlcTrace::distinctLines(unsigned line_bits) const
{
    std::unordered_set<uint64_t> lines;
    for (const auto &a : accesses_)
        lines.insert(a.address >> line_bits);
    return lines.size();
}

} // namespace rlr::trace
