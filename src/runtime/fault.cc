/**
 * @file
 * FaultInjectingBackend implementation. See fault.h for semantics.
 */

#include "runtime/fault.h"

#include <chrono>
#include <limits>
#include <thread>

#include "runtime/server.h"

namespace dadu::runtime {

namespace {
/** Fault sub-kind codes (obs Fault event payload `a`). */
enum : std::uint32_t
{
    kFaultTransient = 0,
    kFaultCorrupt = 1,
    kFaultSpike = 2,
    kFaultDeath = 3,
};
} // namespace

FaultInjectingBackend::FaultInjectingBackend(DynamicsBackend &inner,
                                             const FaultPlan &plan)
    : inner_(&inner), plan_(plan),
      name_(std::string("fault:") + inner.name()), rng_(plan.seed)
{
}

FaultInjectingBackend::FaultInjectingBackend(
    std::unique_ptr<DynamicsBackend> inner, const FaultPlan &plan)
    : inner_(inner.get()), owned_(std::move(inner)), plan_(plan),
      name_(std::string("fault:") + inner_->name()), rng_(plan.seed)
{
}

std::unique_ptr<DynamicsBackend>
FaultInjectingBackend::clone() const
{
    std::unique_ptr<DynamicsBackend> inner_clone = inner_->clone();
    if (!inner_clone)
        return nullptr;
    FaultPlan plan = plan_;
    // Offset the seed so replicas draw independent fault sequences.
    plan.seed = plan_.seed + 7919u * ++clone_count_;
    return std::make_unique<FaultInjectingBackend>(std::move(inner_clone),
                                                   plan);
}

void
FaultInjectingBackend::attachTrace(DynamicsServer &server, int lane)
{
    obs::TraceBuffer *buf = server.traceBuffer();
    trace_ring_ = buf ? &buf->lane(lane) : nullptr;
    trace_lane_ = lane;
    clock_ = server.clock();
}

bool
FaultInjectingBackend::draw(double prob)
{
    if (prob <= 0.0)
        return false;
    if (prob >= 1.0)
        return true;
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < prob;
}

/**
 * Overwrite one element of the field @p fn writes with a quiet NaN.
 * The inner backend has already executed, so the field is sized; the
 * victim index is a seeded draw so corruption positions replay.
 */
void
FaultInjectingBackend::corruptOne(FunctionType fn, DynamicsResult *results,
                                  std::size_t count)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::size_t victim =
        count > 1
            ? std::uniform_int_distribution<std::size_t>(0, count - 1)(rng_)
            : 0;
    DynamicsResult &r = results[victim];
    switch (fn) {
      case FunctionType::ID:
        if (r.tau.size() > 0)
            r.tau[0] = nan;
        break;
      case FunctionType::FD:
        if (r.qdd.size() > 0)
            r.qdd[0] = nan;
        break;
      case FunctionType::M:
        if (r.m.rows() > 0)
            r.m(0, 0) = nan;
        break;
      case FunctionType::Minv:
        if (r.minv.rows() > 0)
            r.minv(0, 0) = nan;
        break;
      case FunctionType::DeltaID:
        if (r.dtau_dq.rows() > 0)
            r.dtau_dq(0, 0) = nan;
        break;
      case FunctionType::DeltaFD:
      case FunctionType::DeltaiFD:
        if (r.dqdd_dq.rows() > 0)
            r.dqdd_dq(0, 0) = nan;
        break;
    }
}

SubmitStatus
FaultInjectingBackend::submit(FunctionType fn,
                              const DynamicsRequest *requests,
                              std::size_t count, DynamicsResult *results,
                              BatchStats *stats)
{
    ++batches_;
    if (dead_ ||
        (plan_.die_after_batches >= 0 && executed_ >= plan_.die_after_batches))
    {
        if (trace_ring_ && !dead_)
            trace_ring_->record(obs::EventKind::Fault, clock_(), -1,
                                static_cast<std::int16_t>(trace_lane_),
                                fn, kFaultDeath,
                                static_cast<double>(batches_));
        dead_ = true;
        if (stats) {
            *stats = BatchStats{};
            stats->status = SubmitStatus::BackendDown;
        }
        return SubmitStatus::BackendDown;
    }

    const bool transient =
        plan_.transient_every_n > 0
            ? (batches_ % plan_.transient_every_n == 0)
            : draw(plan_.transient_fail_prob);
    if (transient) {
        ++transient_faults_;
        if (trace_ring_)
            trace_ring_->record(obs::EventKind::Fault, clock_(), -1,
                                static_cast<std::int16_t>(trace_lane_),
                                fn, kFaultTransient,
                                static_cast<double>(batches_));
        if (stats) {
            *stats = BatchStats{};
            stats->status = SubmitStatus::TransientFailure;
        }
        return SubmitStatus::TransientFailure;
    }

    const SubmitStatus status =
        inner_->submit(fn, requests, count, results, stats);
    if (status != SubmitStatus::Ok) {
        if (stats)
            stats->status = status;
        return status;
    }
    ++executed_;

    if (draw(plan_.corrupt_prob)) {
        ++corrupted_;
        corruptOne(fn, results, count);
        if (trace_ring_)
            trace_ring_->record(obs::EventKind::Fault, clock_(), -1,
                                static_cast<std::int16_t>(trace_lane_),
                                fn, kFaultCorrupt,
                                static_cast<double>(batches_));
    }
    if (draw(plan_.latency_spike_prob)) {
        ++spikes_;
        if (stats)
            stats->total_us += plan_.latency_spike_us;
        if (trace_ring_)
            trace_ring_->record(obs::EventKind::Fault, clock_(), -1,
                                static_cast<std::int16_t>(trace_lane_),
                                fn, kFaultSpike, plan_.latency_spike_us);
        if (plan_.spike_wall)
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<long>(plan_.latency_spike_us)));
    }
    if (stats)
        stats->status = SubmitStatus::Ok;
    return SubmitStatus::Ok;
}

} // namespace dadu::runtime
