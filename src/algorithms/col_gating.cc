#include "algorithms/col_gating.h"

#include <algorithm>

namespace dadu::algo {

bool
seedValid(const std::vector<int> &seed, int nv)
{
    for (std::size_t i = 0; i < seed.size(); ++i) {
        if (seed[i] < 0 || seed[i] >= nv)
            return false;
        for (std::size_t j = 0; j < i; ++j)
            if (seed[j] == seed[i])
                return false;
    }
    return true;
}

int
gatedLiveCount(const std::vector<int> &seed, int nv)
{
    if (seed.empty())
        return nv;
    return std::min(static_cast<int>(seed.size()), nv);
}

bool
ColumnPlan::resolve(const std::vector<int> &seed, int nv)
{
    nv_ = nv;
    dense_ = true;
    cols_.clear();
    if (static_cast<int>(live_.size()) < nv)
        live_.resize(static_cast<std::size_t>(nv));
    std::fill(live_.begin(), live_.begin() + nv, 0);

    if (seed.empty())
        return true;

    for (int c : seed) {
        if (c < 0 || c >= nv) {
            std::fill(live_.begin(), live_.begin() + nv, 0);
            return false;
        }
        if (live_[static_cast<std::size_t>(c)]) { // duplicate
            std::fill(live_.begin(), live_.begin() + nv, 0);
            return false;
        }
        live_[static_cast<std::size_t>(c)] = 1;
    }

    if (static_cast<int>(seed.size()) == nv) // full coverage: dense
        return true;

    dense_ = false;
    for (int c = 0; c < nv; ++c)
        if (live_[static_cast<std::size_t>(c)])
            cols_.push_back(c);
    return true;
}

} // namespace dadu::algo
