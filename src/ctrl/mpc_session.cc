#include "ctrl/mpc_session.h"

#include <algorithm>

#include "algorithms/col_gating.h"
#include "perf/timing.h"
#include "runtime/sched/admission.h"
#include "runtime/sched/policy.h"

namespace dadu::ctrl {

using runtime::DynamicsServer;
using runtime::FunctionType;

MpcSession::MpcSession(const RobotModel &robot, Scenario scenario,
                       IlqrOptions options, Config config)
    : robot_(robot), scenario_(std::move(scenario)), cfg_(config),
      solver_(robot, scenario_.problem, options), channel_(*this)
{
    // A negative slack would tag every job with a deadline in the
    // past; clamp to "untagged bulk" instead.
    cfg_.deadline_slack = std::max(0.0, cfg_.deadline_slack);
}

MpcSession::MpcSession(const RobotModel &robot, Scenario scenario,
                       IlqrOptions options)
    : MpcSession(robot, std::move(scenario), options, Config{})
{}

MpcSession::MpcSession(const RobotModel &robot, Scenario scenario)
    : MpcSession(robot, std::move(scenario), IlqrOptions{}, Config{})
{}

void
MpcSession::ServerChannel::run(FunctionType fn,
                               runtime::DynamicsRequest *requests,
                               std::size_t count,
                               runtime::DynamicsResult *results)
{
    DynamicsServer &srv = *server;
    MpcSession &s = session_;
    if (tick_failed)
        return; // tick already degraded: skip the rest of its jobs
    // Live-column-aware weight: a gated ∆FD linearization batch is
    // cheaper than a dense one, and both the deadline prediction and
    // the per-task calibration must price it that way or every
    // deadline derived from a gated tick would be inflated. The
    // solver builds mask-uniform batches, so request[0] speaks for
    // the batch.
    const int nv0 =
        count > 0 ? static_cast<int>(requests[0].qd.size()) : 0;
    const double fn_weight =
        count > 0 ? runtime::sched::functionWeight(
                        fn,
                        algo::gatedLiveCount(requests[0].seed_cols, nv0),
                        nv0)
                  : runtime::sched::functionWeight(fn);
    const double t0 = perf::nowUs();

    runtime::sched::JobTag tag;
    if (s.cfg_.deadline_slack > 0.0 && s.task_us_ > 0.0) {
        // Queueing delay ahead of this job: the least-loaded lane is
        // where kLeastLoaded (and the sharding water-filling's first
        // shard) will put it.
        double queued = srv.laneLoadWeight(0);
        for (int l = 1; l < srv.backendCount(); ++l)
            queued = std::min(queued, srv.laneLoadWeight(l));
        tag.deadline_us =
            t0 + s.cfg_.deadline_slack *
                     runtime::sched::predictedAdmissionUs(
                         queued, static_cast<int>(count), s.task_us_,
                         fn_weight);
    }

    int job;
    int lanes_used = 1;
    if (count > 1 && srv.backendCount() > 1) {
        job = srv.submitSharded(fn, requests, count, results, tag);
        lanes_used = srv.backendCount();
    } else {
        job = srv.submit(fn, requests, count, results,
                         DynamicsServer::kLeastLoaded, tag);
    }
    srv.wait(job);

    ++s.stats_.jobs;
    const runtime::JobOutcome outcome = srv.jobOutcome(job);
    if (outcome != runtime::JobOutcome::Completed) {
        // Shed or failed: results were never written. Mark the tick
        // degraded and read nothing — no deadline bucket (the server
        // kept it out of its own buckets too), no calibration.
        tick_failed = true;
        if (outcome == runtime::JobOutcome::Rejected)
            ++s.stats_.rejected_jobs;
        else
            ++s.stats_.failed_jobs;
        return;
    }
    if (tag.deadline_us != runtime::sched::kNoDeadline) {
        ++s.stats_.tagged_jobs;
        if (srv.jobMissedDeadline(job))
            ++s.stats_.deadline_misses;
        else
            ++s.stats_.deadline_met;
    }

    // Calibrate the per-task wall time from multi-point batches (the
    // deadline is judged on the wall clock, so wall time — queueing
    // included, which loosens the next prediction — is the right
    // basis; modeled backend time is not). A sharded batch ran its
    // shards concurrently on lanes_used lanes, so its wall time
    // reflects count/lanes_used SERIAL tasks — scale back up or the
    // per-task estimate (and every deadline derived from it) shrinks
    // by the lane count.
    if (count > 1) {
        const double wall = perf::nowUs() - t0;
        if (wall > 0.0)
            s.task_us_ = wall * lanes_used /
                         (static_cast<double>(count) * fn_weight);
    }
}

void
MpcSession::attachTrace(runtime::DynamicsServer &server,
                        const char *name)
{
    runtime::obs::TraceBuffer *buf = server.traceBuffer();
    trace_ = buf ? buf->claimRing(name) : nullptr;
    solver_.setTraceRing(trace_);
}

IlqrSummary
MpcSession::start(runtime::DynamicsServer &server)
{
    channel_.server = &server;
    channel_.tick_failed = false;
    solver_.reset(scenario_.q0, scenario_.qd0);
    const IlqrSummary summary =
        solver_.solve(channel_, scenario_.q0, scenario_.qd0);
    stats_.horizon_cost = solver_.cost();
    return summary;
}

const VectorX &
MpcSession::tick(runtime::DynamicsServer &server, const VectorX &q,
                 const VectorX &qd)
{
    // Shift-at-END ordering: tick t solves with controls and
    // references already advanced t times (by the previous ticks),
    // so the horizon references are time-aligned with the measured
    // state — shifting before the solve instead would make every
    // solve track references one knot in the future (a systematic
    // phase lead on periodic scenarios). The first tick after
    // start() re-anchors the primed time-0 problem unshifted.
    channel_.server = &server;
    channel_.tick_failed = false;
    if (trace_)
        trace_->record(runtime::obs::EventKind::TickBegin, perf::nowUs(),
                       -1, -1, FunctionType::FD,
                       static_cast<std::uint32_t>(stats_.ticks),
                       stats_.horizon_cost);
    // Save the incoming (previous tick's shifted) plan before the
    // solver mutates it: the graceful-degradation fallback if a job
    // of this tick is shed or failed. Element copies reuse capacity,
    // so the steady path does not allocate.
    const int knots = solver_.problem().knots;
    if (u_prev_.size() < static_cast<std::size_t>(knots))
        u_prev_.resize(knots);
    for (int k = 0; k < knots; ++k)
        u_prev_[k] = solver_.u(k);
    solver_.setInitialState(q, qd);
    solver_.rolloutNominal(channel_);
    if (!channel_.tick_failed)
        solver_.iterate(channel_);
    ++stats_.ticks;
    if (channel_.tick_failed) {
        // Degraded tick: discard the partial solve and re-apply the
        // warm-started previous plan. It still shifts forward below,
        // so the controller keeps emitting time-aligned (if stale)
        // controls; horizon_cost keeps its last good value.
        ++stats_.degraded_ticks;
        for (int k = 0; k < knots; ++k)
            solver_.control(k) = u_prev_[k];
    } else {
        stats_.horizon_cost = solver_.cost();
    }
    if (trace_)
        trace_->record(runtime::obs::EventKind::TickEnd, perf::nowUs(),
                       -1, -1, FunctionType::FD,
                       channel_.tick_failed ? 1u : 0u,
                       stats_.horizon_cost);
    // Copy the applied control out BEFORE the warm-start shift
    // overwrites u(0) for the next tick.
    u0_ = solver_.u(0);
    solver_.shiftControls();
    solver_.shiftReferences();
    return u0_;
}

} // namespace dadu::ctrl
