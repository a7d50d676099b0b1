/**
 * @file
 * Admission for DynamicsServer: predict when a job completes and
 * decide at submission whether it enters a lane queue at all, so
 * unbounded bulk load cannot destroy the deadlines of tagged traffic.
 *
 * Everything runs on the server's clock, the one deadlines are judged
 * in. Each lane is calibrated on it from pick to completion, in µs
 * per FD-equivalent task — never on BatchStats::total_us, which is
 * modeled time on the analytic and accelerator backends. A job gets
 * ONE prediction, at submission: it decides admit-or-shed, rides the
 * trace's Admitted event and feeds the error gauges at completion.
 *
 * A shed job gets JobOutcome::Rejected and wait() returns at once;
 * the client picks its fallback (MpcSession reuses its warm-started
 * plan and counts a degraded tick). Tagged work sheds only on a
 * predicted miss, bulk only on queue depth, and a tagged job whose
 * deadline has already passed is ADMITTED (an immediate miss): a late
 * answer still steers a controller, no answer does not.
 */

#ifndef DADU_RUNTIME_SCHED_ADMISSION_H
#define DADU_RUNTIME_SCHED_ADMISSION_H

#include <cstddef>
#include <optional>
#include <vector>

#include "runtime/obs/metrics.h"
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

/** Knobs of admission shedding. */
struct AdmissionConfig
{
    /**
     * Bulk (untagged) jobs shed when a lane they would queue on
     * already queues this many items. 0 means unbounded (bulk is
     * never depth-shed).
     */
    std::size_t max_queue_depth = 8;
};

/**
 * Per-lane wall-time calibration, the completion prediction, the
 * admit/shed rule and the error-gauge feed. Not thread-safe: the
 * server calls it under its lock. Times are absolute µs on the
 * server's clock.
 */
class Admission
{
  public:
    /** Add one uncalibrated lane. */
    void addLane() { lanes_.emplace_back(); }

    /** Shed with @p cfg. Off by default: every job is admitted. */
    void enableShedding(const AdmissionConfig &cfg) { shed_ = cfg; }

    /** A batch of @p weight FD-equivalent tasks was picked on @p lane. */
    void batchStarted(int lane, double now_us, double weight);

    /** The lane's batch ended; only a @p completed one calibrates. */
    void batchEnded(int lane, double now_us, bool completed);

    /** Wall µs per FD-equivalent task on @p lane; 0 = uncalibrated. */
    double taskUs(int lane) const { return lanes_[lane].task_us; }

    /**
     * Predicted completion of @p points tasks of per-task weight @p
     * unit_weight on @p lane, behind @p competing_weight FD-equivalent
     * tasks. With @p plus_in_flight the rest of the lane's executing
     * batch (`busy_until − now`) drains first too — for EDF, whose
     * competing work counts queued items only. 0 when the lane is
     * uncalibrated (no prediction beats a wrong one).
     */
    double predictDoneUs(int lane, double now_us, double competing_weight,
                         std::size_t points, double unit_weight,
                         bool plus_in_flight) const;

    /**
     * Admit or shed one job, judged by its prediction @p
     * predicted_done_us (0 = none) and the deepest queue @p
     * queue_depth among the lanes it would run on.
     */
    bool admit(double deadline_us, double now_us, double predicted_done_us,
               std::size_t queue_depth) const;

    /** Feed the error gauges with one completed, predicted job. */
    static void recordError(obs::MetricsRegistry &metrics,
                            double submit_us, double predicted_done_us,
                            double done_us);

  private:
    struct Lane
    {
        double task_us = 0.0;       ///< EWMA, wall µs per FD-eq task
        double started_us = 0.0;    ///< pick time of the current batch
        double weight = 0.0;        ///< its FD-equivalent tasks
        double busy_until_us = 0.0; ///< its predicted completion
    };
    std::vector<Lane> lanes_;
    std::optional<AdmissionConfig> shed_;
};

} // namespace dadu::runtime::sched

#endif // DADU_RUNTIME_SCHED_ADMISSION_H
