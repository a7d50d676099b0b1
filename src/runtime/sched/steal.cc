#include "runtime/sched/policies.h"

namespace dadu::runtime::sched {

bool
StealPolicy::pick(const QueueView &q, int lane, Pick &out)
{
    if (inner_->pick(q, lane, out))
        return true;
    // The asking lane has nothing runnable: hunt queued FLAT work on
    // the other lanes, in EDF order across all of them, so a stolen
    // deadline-tagged item is served before a stolen bulk one.
    // Serial-stage items are skipped — their later stages re-enqueue
    // on the lane that ran the previous stage, so migrating one
    // would split the job across backends.
    bool found = false;
    int best_lane = -1;
    std::size_t best_pos = 0;
    ItemView best_view;
    const int n_lanes = q.lanes();
    for (int victim = 0; victim < n_lanes; ++victim) {
        if (victim == lane || q.flatCount(victim) == 0)
            continue;
        const std::size_t depth = q.depth(victim);
        for (std::size_t pos = 0; pos < depth; ++pos) {
            const ItemView view = q.item(victim, pos);
            if (!view.flat)
                continue;
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
    // same-function flat items of the SAME victim, so the migration
    // also fills the thief's pipeline.
    if (coalesce_)
        absorbSameFnFlat(q, out);
    return true;
}

} // namespace dadu::runtime::sched
