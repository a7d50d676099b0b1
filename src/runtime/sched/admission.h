/**
 * @file
 * Admission control for DynamicsServer: decide at submission time
 * whether a job should enter a lane queue at all, instead of letting
 * unbounded bulk load destroy the deadlines of tagged traffic.
 *
 * The policy sees one AdmissionRequest per submitted job — shape,
 * QoS tag, and a snapshot of the contention it would face — and says
 * admit or shed. A shed job is never silent: the server records it
 * with JobOutcome::Rejected, wait() returns immediately, and the
 * client chooses its own fallback (MpcSession reuses the previous
 * warm-started plan and counts a degraded tick).
 *
 * Two invariants every policy must keep:
 *  - A tagged job whose deadline is already past is ADMITTED and
 *    counted as an immediate miss — shedding it would turn a late
 *    answer into no answer, which is strictly worse for a controller.
 *  - Only the caller's own traffic class pays for overload: bulk
 *    (untagged) work sheds on queue depth before tagged work sheds
 *    on predicted completion.
 */

#ifndef DADU_RUNTIME_SCHED_ADMISSION_H
#define DADU_RUNTIME_SCHED_ADMISSION_H

#include <cstddef>
#include <memory>

#include "runtime/request.h"
#include "runtime/sched/telemetry.h"

namespace dadu::runtime::sched {

/**
 * Predicted microseconds until a newly submitted job completes, given
 * the weighted work that drains before it. @p task_us is the per-task
 * steady-state cost of a weight-1.0 function on one lane; @p
 * fn_weight scales it to the submitted function:
 *
 *   queued_weight·task_us + points·task_us·fn_weight
 */
double predictedAdmissionUs(double queued_weight, int points,
                            double task_us, double fn_weight);

/**
 * Everything an admission policy may consult, snapshotted under the
 * server lock at submission. `queued_weight` is the COMPETING weight:
 * under EDF only items that would drain before this job's deadline
 * count (queued bulk does not delay a tagged job that overtakes it);
 * under FIFO everything queued counts.
 */
struct AdmissionRequest
{
    FunctionType fn = FunctionType::FD;
    int points = 0;         ///< tasks the target lane runs
    double deadline_us = kNoDeadline; ///< absolute, perf::nowUs() clock
    double now_us = 0.0;    ///< submission timestamp, same clock
    double queued_weight = 0.0; ///< FD-equivalent weight draining first
    std::size_t queue_depth = 0; ///< items queued on the target lane
    double task_us = 0.0;   ///< calibrated per-task cost (0 = unknown)
    /**
     * Live-column-aware per-task weight of the submitted job (the
     * job's unit_weight): a column-gated ∆ batch is cheaper than a
     * dense one and its completion prediction must reflect that. 0
     * means "unknown — fall back to the dense functionWeight(fn)".
     */
    double fn_weight = 0.0;
};

/** Admit-or-shed decision point, pluggable on a DynamicsServer. */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;
    virtual const char *name() const = 0;

    /** True to enqueue the job, false to shed it (Rejected outcome). */
    virtual bool admit(const AdmissionRequest &req) = 0;
};

/** Knobs of the stock deadline-aware admission policy. */
struct AdmissionConfig
{
    /**
     * Bulk (untagged) jobs shed when the least-loaded healthy lane
     * already queues this many items. 0 means unbounded (bulk is
     * never depth-shed).
     */
    std::size_t max_queue_depth = 8;
};

/**
 * The stock policy: depth-bound bulk, predict-completion tagged,
 * always admit already-late tagged jobs (immediate-miss accounting
 * happens server-side). With task_us unknown (0) tagged jobs are
 * always admitted — no prediction beats a wrong one.
 */
std::unique_ptr<AdmissionPolicy>
makeDeadlineAdmission(const AdmissionConfig &cfg);

} // namespace dadu::runtime::sched

#endif // DADU_RUNTIME_SCHED_ADMISSION_H
