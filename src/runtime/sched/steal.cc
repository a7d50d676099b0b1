#include "runtime/sched/policies.h"

namespace dadu::runtime::sched {

bool
StealPolicy::pick(const QueueView &q, int lane, Pick &out)
{
    if (inner_->pick(q, lane, out))
        return true;
    // The asking lane has nothing runnable: hunt queued work on the
    // other lanes, in EDF order across all of them, so a stolen
    // deadline-tagged item is served before a stolen bulk one.
    bool found = false;
    int best_lane = -1;
    std::size_t best_pos = 0;
    ItemView best_view;
    const int n_lanes = q.lanes();
    for (int victim = 0; victim < n_lanes; ++victim) {
        if (victim == lane)
            continue;
        const std::size_t depth = q.depth(victim);
        for (std::size_t pos = 0; pos < depth; ++pos) {
            const ItemView view = q.item(victim, pos);
            if (!found || edfBefore(view, best_view)) {
                found = true;
                best_lane = victim;
                best_pos = pos;
                best_view = view;
            }
        }
    }
    if (!found)
        return false;
    out.lane = best_lane;
    out.positions.clear();
    out.positions.push_back(best_pos);
    out.overtaken = best_pos;
    // A stolen small batch can bring friends: absorb further small
    // same-function items of the SAME victim, so the migration
    // also fills the thief's pipeline.
    if (coalesce_)
        absorbSameFnFlat(q, out);
    return true;
}

} // namespace dadu::runtime::sched
