/**
 * @file
 * Configuration and telemetry types of the QoS scheduling subsystem.
 *
 * A DynamicsServer lane is no longer a plain FIFO: the policy chosen
 * in SchedConfig decides which queued item a lane runs next
 * (deadline-aware EDF or submission-order FIFO), whether small
 * same-function flat batches from different clients merge into one
 * pipeline-filling batch (coalescing), and whether an idle lane may
 * pull queued flat work from a busy one (work stealing). SchedStats
 * counts what the policy actually did over one accounting interval,
 * including the deadline outcomes of tagged jobs — a tagged job is
 * never dropped or parked: it either completes by its deadline
 * (deadline_met) or completes late and is reported in
 * deadline_misses.
 */

#ifndef DADU_RUNTIME_SCHED_TELEMETRY_H
#define DADU_RUNTIME_SCHED_TELEMETRY_H

#include <cstddef>
#include <limits>

#include "runtime/obs/config.h"

namespace dadu::runtime::sched {

/** Base queue-pop order of a lane. */
enum class PolicyKind
{
    Fifo, ///< submission order (the pre-QoS behavior, the default)
    Edf,  ///< earliest absolute deadline first; untagged jobs after
};

/** Sentinel deadline of an untagged job ("no deadline"). */
inline constexpr double kNoDeadline =
    std::numeric_limits<double>::infinity();

/**
 * Optional QoS metadata attached to a job at submission. Deadlines
 * are absolute microseconds on the perf::nowUs() monotonic clock
 * (tag with nowUs() + budget); kNoDeadline means bulk work that any
 * deadline-tagged job may overtake under EDF.
 */
struct JobTag
{
    int priority = 0;                 ///< EDF tie-break: higher first
    double deadline_us = kNoDeadline; ///< absolute completion target
};

/** Scheduling-policy selection and knobs of one DynamicsServer. */
struct SchedConfig
{
    PolicyKind kind = PolicyKind::Fifo;

    /**
     * Merge small same-function items queued on one lane into a
     * single backend batch (per-batch pipeline latency is paid once
     * for all of them); the merged BatchStats is split back per job
     * in proportion to task count. The caps are the kCoalesce*
     * constants of sched/policy.h.
     */
    bool coalesce = false;

    /**
     * Let a lane whose queue yields nothing runnable pull queued
     * items from other lanes. Requires interchangeable backends —
     * register clone()s of one configured backend, as with
     * submitSharded().
     */
    bool steal = false;

    /**
     * Bounded retry budget for TransientFailure submits: a faulted
     * batch is resubmitted to the same lane up to this many times
     * before the lane is quarantined and its work failed over.
     */
    int max_retries = 2;

    /**
     * NaN/inf-guard the fields each completed batch wrote. A corrupt
     * batch counts as a transient fault (the retry budget applies) —
     * silent NaN propagation into an MPC plan is the failure mode
     * this exists to stop. Off by default: trusted backends should
     * not pay the scan.
     */
    bool validate_results = false;

    /**
     * Observability selection (lifecycle tracing + metrics registry).
     * Both off by default; when off, the server holds no
     * observability state and every hook is a branch on nullptr.
     */
    obs::ServerObsConfig obs;
};

/**
 * What the policy did over one drain() accounting interval. Returned
 * alongside ServerStats by DynamicsServer::drain().
 */
struct SchedStats
{
    std::size_t picks = 0;         ///< serve decisions taken
    std::size_t coalesced_batches = 0; ///< merged submissions issued
    std::size_t coalesced_items = 0;   ///< items absorbed beyond the first
    std::size_t steals = 0;        ///< items executed off their home lane
    std::size_t deadline_met = 0;  ///< tagged jobs done by their deadline
    std::size_t deadline_misses = 0; ///< tagged jobs that completed late

    // Fault-tolerance counters (zero unless faults or shedding occur).
    std::size_t transient_faults = 0; ///< non-Ok submits observed
    std::size_t retries = 0;          ///< resubmissions after a fault
    std::size_t corrupt_results = 0;  ///< batches failing NaN validation
    std::size_t lane_deaths = 0;      ///< lanes quarantined
    std::size_t requeued_items = 0;   ///< items failed over to siblings
    std::size_t failed_jobs = 0;      ///< jobs with no healthy lane left
    std::size_t rejected_jobs = 0;    ///< jobs shed by admission control
    std::size_t immediate_misses = 0; ///< tagged jobs admitted already late
};

} // namespace dadu::runtime::sched

#endif // DADU_RUNTIME_SCHED_TELEMETRY_H
