/**
 * @file
 * The admission unit. See admission.h for the invariants it keeps.
 */

#include "runtime/sched/admission.h"

#include <algorithm>
#include <cmath>

namespace dadu::runtime::sched {

double
predictedAdmissionUs(double queued_weight, int points, double task_us,
                     double fn_weight)
{
    return queued_weight * task_us + points * task_us * fn_weight;
}

void
Admission::batchStarted(int lane, double now_us, double weight)
{
    Lane &l = lanes_[lane];
    l.started_us = now_us;
    l.weight = weight;
    l.busy_until_us = now_us + l.task_us * weight;
}

void
Admission::batchEnded(int lane, double now_us, bool completed)
{
    Lane &l = lanes_[lane];
    l.busy_until_us = now_us;
    if (!completed || l.weight <= 0.0 || now_us < l.started_us)
        return;
    const double sample = (now_us - l.started_us) / l.weight;
    l.task_us = l.task_us == 0.0 ? sample : 0.8 * l.task_us + 0.2 * sample;
}

double
Admission::predictDoneUs(int lane, double now_us, double competing_weight,
                         std::size_t points, double unit_weight,
                         bool plus_in_flight) const
{
    const Lane &l = lanes_[lane];
    if (l.task_us <= 0.0)
        return 0.0;
    const double in_flight =
        plus_in_flight ? std::max(0.0, l.busy_until_us - now_us) : 0.0;
    return now_us + in_flight +
           predictedAdmissionUs(competing_weight, static_cast<int>(points),
                                l.task_us, unit_weight);
}

bool
Admission::admit(double deadline_us, double now_us, double predicted_done_us,
                 std::size_t queue_depth) const
{
    if (!shed_)
        return true;
    if (deadline_us == kNoDeadline) {
        // Bulk: shed on queue depth only. Depth bounds memory and
        // keeps the EDF scan short; bulk has no deadline to miss.
        return shed_->max_queue_depth == 0 ||
               queue_depth < shed_->max_queue_depth;
    }
    // Already late: admit, never shed. The server counts it as an
    // immediate miss; a late answer still steers the controller.
    if (deadline_us <= now_us || predicted_done_us <= 0.0)
        return true;
    return predicted_done_us <= deadline_us;
}

void
Admission::recordError(obs::MetricsRegistry &metrics, double submit_us,
                       double predicted_done_us, double done_us)
{
    // Relative to the prediction's own horizon.
    const double err = done_us - predicted_done_us;
    const double horizon = std::max(predicted_done_us - submit_us, 1.0);
    metrics.set(obs::Gauge::AdmissionLastErrUs, err);
    metrics.ewma(obs::Gauge::AdmissionErrRelEwma, std::abs(err) / horizon);
    metrics.add(obs::Counter::AdmissionSamples);
}

} // namespace dadu::runtime::sched
