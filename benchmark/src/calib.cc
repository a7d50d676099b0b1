#include "calib.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "perf/timing.h"

namespace rbdbench {

namespace {

using dadu::perf::nowUs;

/**
 * Host-speed index of an uncontended core of the sizing host (4-vCPU
 * Xeon VM, GCC 12.2, -O3): the lowest tenth of the indices seen in
 * mpc_arm runs there. It only sets the unit; no result depends on it.
 */
constexpr double kReferenceIndex = 3.6;
/** Weight of the tree kernel in the index (see calib.h). */
constexpr double kTreeExponent = 0.4;
constexpr int kTreeNodes = 1024;
constexpr int kTreeKeys = 512;
constexpr int kChainSweeps = 6;
constexpr int kTreePasses = 2;
/** Timed runs per kernel; the fastest counts. */
constexpr int kRuns = 3;

std::uint32_t
lcg(std::uint32_t &x)
{
    x = x * 1664525u + 1013904223u;
    return x;
}

} // namespace

HostProbe::HostProbe()
{
    std::uint32_t x = 12345;
    for (int i = 0; i < kTreeNodes; ++i)
        tree_.emplace(static_cast<int>(lcg(x) >> 8), i);
    keys_.resize(kTreeKeys);
    for (int &k : keys_) {
        auto it = tree_.lower_bound(static_cast<int>(lcg(x) >> 8));
        k = it == tree_.end() ? tree_.begin()->first : it->first;
    }
    for (int l = 0; l < kLinks; ++l)
        for (int i = 0; i < 36; ++i)
            transforms_[l][i] = 0.1 * ((l * 7 + i * 3) % 11) - 0.45 +
                                (i % 7 == 0 ? 1.0 : 0.0);
}

double
HostProbe::chainUs()
{
    const double t0 = nowUs();
    double v[6] = {1.0, 0.5, -0.25, 0.125, 0.3, -0.7};
    for (int sweep = 0; sweep < kChainSweeps; ++sweep) {
        for (int l = 0; l < kLinks; ++l) {
            double w[6];
            for (int i = 0; i < 6; ++i) {
                double s = 0.0;
                for (int j = 0; j < 6; ++j)
                    s += transforms_[l][i * 6 + j] * v[j];
                w[i] = s;
            }
            const double n =
                std::max(1.0, std::abs(w[0]) + std::abs(w[3]));
            for (int i = 0; i < 6; ++i)
                v[i] = w[i] / n;
        }
    }
    sink_ += v[0];
    return nowUs() - t0;
}

double
HostProbe::treeUs()
{
    const double t0 = nowUs();
    long acc = 0;
    for (int pass = 0; pass < kTreePasses; ++pass)
        for (int k : keys_) {
            auto it = tree_.find(k);
            if (it != tree_.end()) {
                acc += it->second;
                it->second ^= 1;
            }
        }
    sink_ += static_cast<double>(acc);
    return nowUs() - t0;
}

double
HostProbe::factor()
{
    double chain = chainUs();
    for (int r = 1; r < kRuns; ++r)
        chain = std::min(chain, chainUs());
    double tree = treeUs();
    for (int r = 1; r < kRuns; ++r)
        tree = std::min(tree, treeUs());
    return kReferenceIndex / (chain * std::pow(tree, kTreeExponent));
}

} // namespace rbdbench
