#include <algorithm>

#include "runtime/sched/policies.h"

namespace dadu::runtime::sched {

std::size_t
absorbSameFnFlat(const QueueView &q, Pick &out)
{
    if (out.positions.size() != 1)
        return 0;
    const std::size_t primary_pos = out.positions.front();
    const ItemView primary = q.item(out.lane, primary_pos);
    // Only small batches amortize: a batch already near the
    // pipeline-filling size pays its latency once over many tasks,
    // and merging it would just delay whoever queued behind it.
    if (primary.count >= kCoalesceOnlyBelow)
        return 0;
    std::size_t total = primary.count;
    std::size_t absorbed = 0;
    const std::size_t depth = q.depth(out.lane);
    for (std::size_t pos = 0; pos < depth; ++pos) {
        if (pos == primary_pos)
            continue;
        if (out.positions.size() >= kCoalesceMaxItems)
            break;
        const ItemView view = q.item(out.lane, pos);
        // mask_sig equality keeps the merged batch mask-uniform:
        // mixing a gated item with a dense one (or a differently
        // gated one) would push the whole merged batch off the
        // backend's uniform-mask SoA fast path.
        if (view.fn != primary.fn ||
            view.mask_sig != primary.mask_sig ||
            view.count >= kCoalesceOnlyBelow)
            continue;
        if (total + view.count > kCoalesceMaxTasks)
            continue;
        out.positions.push_back(pos);
        total += view.count;
        ++absorbed;
    }
    if (absorbed > 0)
        std::sort(out.positions.begin(), out.positions.end());
    return absorbed;
}

bool
CoalescePolicy::pick(const QueueView &q, int lane, Pick &out)
{
    if (!inner_->pick(q, lane, out))
        return false;
    absorbSameFnFlat(q, out);
    return true;
}

} // namespace dadu::runtime::sched
