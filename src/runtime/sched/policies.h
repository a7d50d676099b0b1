/**
 * @file
 * The concrete SchedPolicy implementations (internal to the sched
 * subsystem; users select them through SchedConfig / makePolicy).
 * Each lives in its own translation unit: fifo.cc, edf.cc,
 * coalesce.cc, steal.cc.
 */

#ifndef DADU_RUNTIME_SCHED_POLICIES_H
#define DADU_RUNTIME_SCHED_POLICIES_H

#include "runtime/sched/policy.h"

namespace dadu::runtime::sched {

/** Submission order: always the queue front (the pre-QoS behavior). */
class FifoPolicy : public SchedPolicy
{
  public:
    const char *name() const override { return "fifo"; }
    bool pick(const QueueView &q, int lane, Pick &out) override;
};

/** Earliest absolute deadline first; untagged items in FIFO order after. */
class EdfPolicy : public SchedPolicy
{
  public:
    const char *name() const override { return "edf"; }
    bool pick(const QueueView &q, int lane, Pick &out) override;
};

/**
 * Decorator: after the inner policy picks a small primary, absorb
 * further small same-function items of the same lane into one merged
 * batch.
 */
class CoalescePolicy : public SchedPolicy
{
  public:
    explicit CoalescePolicy(std::unique_ptr<SchedPolicy> inner)
        : inner_(std::move(inner))
    {}

    const char *name() const override { return "coalesce"; }
    bool crossLane() const override { return inner_->crossLane(); }
    bool pick(const QueueView &q, int lane, Pick &out) override;

  private:
    std::unique_ptr<SchedPolicy> inner_;
};

/**
 * Decorator: when the inner policy finds nothing on the asking lane,
 * pull the best (EDF-ordered) queued item from another lane —
 * optionally coalescing more work from the same victim.
 */
class StealPolicy : public SchedPolicy
{
  public:
    StealPolicy(std::unique_ptr<SchedPolicy> inner, bool coalesce)
        : inner_(std::move(inner)), coalesce_(coalesce)
    {}

    const char *name() const override { return "steal"; }
    bool crossLane() const override { return true; }
    bool pick(const QueueView &q, int lane, Pick &out) override;

  private:
    std::unique_ptr<SchedPolicy> inner_;
    bool coalesce_; ///< absorb friends of a stolen item
};

} // namespace dadu::runtime::sched

#endif // DADU_RUNTIME_SCHED_POLICIES_H
