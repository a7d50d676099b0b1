/**
 * @file
 * SchedPolicy: the pluggable queue-pop decision of a DynamicsServer
 * lane.
 *
 * The server owns the queues, the locking, the execution and the
 * accounting; a policy only answers one question — "what should the
 * worker of lane L run next?" — through a read-only view of every
 * lane's queued items. The answer (a Pick) names one or more queued
 * items of ONE source lane to pop and submit as a single backend
 * batch on L, which is how the three QoS mechanisms compose:
 *
 *  - EDF picks the earliest-deadline runnable item instead of the
 *    queue front;
 *  - coalescing returns several small same-function items as one
 *    Pick, so the backend sees one pipeline-filling batch;
 *  - work stealing returns a Pick whose source lane differs from L,
 *    migrating queued work to an otherwise idle lane.
 *
 * pick() is always called with the server mutex held and the popped
 * items execute on L's worker thread, so every backend still sees
 * exactly one submitting thread — the policy reorders and regroups
 * queued work, it never adds concurrency.
 */

#ifndef DADU_RUNTIME_SCHED_POLICY_H
#define DADU_RUNTIME_SCHED_POLICY_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/request.h"
#include "runtime/sched/telemetry.h"

namespace dadu::runtime::sched {

/**
 * Relative initiation-interval weight of one Table I function in
 * FD-equivalents — the load metric of the server's water-filling.
 * Counting raw tasks treats a ∆FD task like an FD task, but a
 * ∆FD occupies the pipeline ~1.5x longer (the derivative pass reuses
 * the forward arrays and adds the ∂-propagation); weighting the lane
 * load by II packs lanes by the time they actually owe.
 */
constexpr double
functionWeight(FunctionType fn)
{
    switch (fn) {
      case FunctionType::DeltaFD:
      case FunctionType::DeltaiFD:
          return 1.5;
      case FunctionType::DeltaID:
          return 1.25;
      default:
          return 1.0; // ID / FD / M / Minv stream at the base II
    }
}

/**
 * Live-column-aware weight: a column-gated ∆ task streams only
 * @p live of the @p nv Jacobian columns, so the part of its II that
 * exceeds the base function (the ∂-propagation) scales with the live
 * fraction. Dense requests (live >= nv) and weight-1.0 functions
 * collapse to the dense weight, so ungated traffic prices exactly as
 * before.
 */
constexpr double
functionWeight(FunctionType fn, int live, int nv)
{
    const double w = functionWeight(fn);
    if (w == 1.0 || nv <= 0 || live >= nv)
        return w;
    return 1.0 + (w - 1.0) * static_cast<double>(live) /
                     static_cast<double>(nv);
}

/** Policy-visible metadata of one queued work item. */
struct ItemView
{
    FunctionType fn{};
    std::size_t count = 0; ///< tasks in this item
    std::uint64_t seq = 0; ///< submission order (job id): FIFO key
    int priority = 0;      ///< higher first (EDF tie-break)
    double deadline_us = kNoDeadline; ///< absolute, kNoDeadline if untagged
    /**
     * Column-mask signature of the item's batch (runtime::
     * maskSignature): 0 dense, kMaskMixed heterogeneous, else a hash
     * of the shared seed. The coalescer only merges items with EQUAL
     * signatures.
     */
    std::uint64_t mask_sig = 0;
};

/** Read-only view of every lane's queue (server mutex held). */
class QueueView
{
  public:
    virtual ~QueueView() = default;
    virtual int lanes() const = 0;
    virtual std::size_t depth(int lane) const = 0;
    virtual ItemView item(int lane, std::size_t pos) const = 0;
};

/**
 * One serve decision: pop the items at @p positions (strictly
 * ascending) of @p lane's queue and run them as ONE backend batch on
 * the asking lane. More than one position implies every named item
 * is of the same function.
 */
struct Pick
{
    int lane = -1;
    std::vector<std::size_t> positions; ///< grow-only scratch, reused
    /**
     * Queued items the primary position bypassed (its queue depth at
     * pick time): 0 for FIFO front-pops, the queue-jump depth of an
     * EDF or steal pick. Traced as the "overtaken" payload of the
     * Picked lifecycle event.
     */
    std::size_t overtaken = 0;
};

/** EDF order: deadline, then priority (desc), then submission. */
inline bool
edfBefore(const ItemView &a, const ItemView &b)
{
    if (a.deadline_us != b.deadline_us)
        return a.deadline_us < b.deadline_us;
    if (a.priority != b.priority)
        return a.priority > b.priority;
    return a.seq < b.seq;
}

/** The queue-pop decision of a lane. */
class SchedPolicy
{
  public:
    virtual ~SchedPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Decide what @p lane runs next; return false when nothing is
     * runnable for it. Called with the server mutex held: must not
     * block, and must not allocate in steady state (@p out's
     * position vector is grow-only caller scratch).
     */
    virtual bool pick(const QueueView &q, int lane, Pick &out) = 0;

    /**
     * True when pick() may look beyond @p lane's own queue (the
     * stealing policy): the server then wakes every lane's worker on
     * any push, not just the target lane's.
     */
    virtual bool crossLane() const { return false; }
};

/** The coalescer merges only items with fewer tasks than this. */
inline constexpr std::size_t kCoalesceOnlyBelow = 64;

/** Task cap of one merged batch. */
inline constexpr std::size_t kCoalesceMaxTasks = 512;

/** Item cap of one merged batch (bounds the gather/scatter). */
inline constexpr std::size_t kCoalesceMaxItems = 32;

/**
 * Absorb further small same-function items of @p out.lane into
 * @p out (the coalescing step, shared by the coalescing and stealing
 * policies), within the kCoalesce* caps. @p out must already hold
 * one primary position; afterwards out.positions is sorted
 * ascending. Returns the number of items absorbed.
 */
std::size_t absorbSameFnFlat(const QueueView &q, Pick &out);

/**
 * Build the policy chain of @p cfg: FIFO or EDF base, optionally
 * wrapped by the coalescer, optionally by the stealer.
 */
std::unique_ptr<SchedPolicy> makePolicy(const SchedConfig &cfg);

} // namespace dadu::runtime::sched

#endif // DADU_RUNTIME_SCHED_POLICY_H
