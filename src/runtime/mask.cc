#include "runtime/mask.h"

#include <algorithm>
#include <vector>

namespace dadu::runtime {

bool
gatesColumns(FunctionType fn)
{
    return fn == FunctionType::DeltaID || fn == FunctionType::DeltaFD ||
           fn == FunctionType::DeltaiFD;
}

bool
masksValid(FunctionType fn, const DynamicsRequest *requests,
           std::size_t count, int nv)
{
    if (!gatesColumns(fn) || requests == nullptr)
        return true;
    for (std::size_t i = 0; i < count; ++i)
        if (!algo::seedValid(requests[i].seed_cols, nv))
            return false;
    return true;
}

namespace {

/** FNV-1a hash of one seed; 0 means dense. */
std::uint64_t
seedSignature(const std::vector<int> &seed)
{
    if (seed.empty())
        return 0;
    std::uint64_t h = 1469598103934665603ull;
    for (int c : seed) {
        h ^= static_cast<std::uint64_t>(c) + 1;
        h *= 1099511628211ull;
    }
    // 0 and all-ones are reserved (dense / mixed-batch sentinels).
    return h == 0 || h == kMaskMixed ? 1 : h;
}

} // namespace

std::uint64_t
maskSignature(FunctionType fn, const DynamicsRequest *requests,
              std::size_t count)
{
    if (!gatesColumns(fn) || requests == nullptr || count == 0)
        return 0;
    const std::uint64_t sig = seedSignature(requests[0].seed_cols);
    for (std::size_t i = 1; i < count; ++i)
        if (seedSignature(requests[i].seed_cols) != sig)
            return kMaskMixed;
    return sig;
}

const algo::ColumnPlan *
unionPlan(FunctionType fn, const DynamicsRequest *requests,
          std::size_t count, int nv, algo::ColumnPlan &plan)
{
    if (!gatesColumns(fn) || requests == nullptr || count == 0)
        return nullptr;
    std::vector<int> live;
    for (std::size_t i = 0; i < count; ++i) {
        const std::vector<int> &seed = requests[i].seed_cols;
        // One dense (or malformed) request prices the whole batch
        // dense.
        if (seed.empty() || !algo::seedValid(seed, nv))
            return nullptr;
        live.insert(live.end(), seed.begin(), seed.end());
    }
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    if (!plan.resolve(live, nv) || plan.dense())
        return nullptr;
    return &plan;
}

} // namespace dadu::runtime
