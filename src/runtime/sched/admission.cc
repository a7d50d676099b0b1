/**
 * @file
 * Stock deadline-aware admission policy. See admission.h for the
 * invariants every policy keeps.
 */

#include "runtime/sched/admission.h"

#include "runtime/sched/policy.h"

namespace dadu::runtime::sched {

double
predictedAdmissionUs(double queued_weight, int points, double task_us,
                     double fn_weight)
{
    return queued_weight * task_us + points * task_us * fn_weight;
}

namespace {

class DeadlineAdmission final : public AdmissionPolicy
{
  public:
    explicit DeadlineAdmission(const AdmissionConfig &cfg) : cfg_(cfg) {}

    const char *name() const override { return "deadline-admission"; }

    bool admit(const AdmissionRequest &req) override
    {
        if (req.deadline_us == kNoDeadline) {
            // Bulk: shed on queue depth only. Depth bounds memory and
            // keeps the EDF scan short; bulk has no deadline to miss.
            return cfg_.max_queue_depth == 0 ||
                   req.queue_depth < cfg_.max_queue_depth;
        }
        // Already late: admit, never shed. The server counts it as an
        // immediate miss; a late answer still steers the controller.
        if (req.deadline_us <= req.now_us)
            return true;
        if (req.task_us <= 0.0)
            return true; // no calibration yet — cannot predict
        const double eta = predictedAdmissionUs(
            req.queued_weight, req.points, req.task_us,
            req.fn_weight > 0.0 ? req.fn_weight
                                : functionWeight(req.fn));
        return req.now_us + eta <= req.deadline_us;
    }

  private:
    AdmissionConfig cfg_;
};

} // namespace

std::unique_ptr<AdmissionPolicy>
makeDeadlineAdmission(const AdmissionConfig &cfg)
{
    return std::make_unique<DeadlineAdmission>(cfg);
}

} // namespace dadu::runtime::sched
