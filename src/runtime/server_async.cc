/**
 * @file
 * Asynchronous execution mode of DynamicsServer: one worker thread
 * per registered backend lane, client-side blocking waits, and the
 * lifecycle (start/stop) around them.
 *
 * The split from server.cc is deliberate: everything here is thread
 * lifecycle; the queue/accounting/sharding logic lives in server.cc
 * and is shared verbatim with the synchronous drain() path, which is
 * what keeps the two modes bitwise-identical in results and
 * accounting.
 */

#include "runtime/server.h"

#include "runtime/obs/aggregate.h"
#include "runtime/obs/endpoint.h"

namespace dadu::runtime {

void
DynamicsServer::startObsPlane()
{
    const obs::ServerObsConfig &o = sched_cfg_.obs;
    const bool stream = o.trace && !o.stream_trace_path.empty();
    if (o.aggregate_interval_ms <= 0 && o.stats_port < 0 && !stream)
        return;
    // Rebuild from scratch: a previous run's aggregator holds cursors
    // positioned at that run's end (and maybe a finalized file).
    endpoint_.reset();
    aggregator_.reset();
    obs::AggregatorConfig acfg;
    acfg.interval_ms = o.aggregate_interval_ms > 0 ? o.aggregate_interval_ms : 100;
    acfg.history = o.aggregate_history;
    if (stream)
        acfg.stream_path = o.stream_trace_path;
    aggregator_ = std::make_unique<obs::ObsAggregator>(*this, acfg);
    aggregator_->start();
    if (o.stats_port >= 0)
    {
        endpoint_ = std::make_unique<obs::StatsEndpoint>(*aggregator_,
                                                         o.stats_port);
        endpoint_->start();
    }
}

void
DynamicsServer::stopObsPlane()
{
    // Endpoint first: it reads the aggregator's snapshots. The
    // aggregator then takes its final tick over the quiesced server
    // (tail events reach the streamed file) and finalizes it. Both
    // objects stay readable until reconfiguration or restart.
    if (endpoint_)
        endpoint_->stop();
    if (aggregator_)
        aggregator_->stop();
}

void
DynamicsServer::start()
{
    if (running())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = false;
    }
    // Publish running_ BEFORE the workers exist: a client observing
    // false may serve inline (wait() fallback), which must never
    // overlap a worker on the same lane. The mirror-image ordering
    // of stop().
    running_.store(true, std::memory_order_release);
    workers_.reserve(lanes_.size());
    for (int i = 0; i < static_cast<int>(lanes_.size()); ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    startObsPlane();
}

void
DynamicsServer::stop()
{
    if (!running())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    for (Lane &lane : lanes_)
        lane.cv.notify_all();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    // A submit() racing stop() can land work on a lane whose worker
    // already observed stop_ and exited; the straggler pass below
    // serves those so every accepted job completes (and wait()ers
    // blocked on them wake). running_ flips BEFORE the pass: any
    // submit the pass's final scan missed must have locked mu_ after
    // the scan, which orders this store before it — so that client's
    // later wait() reads running() == false and serves inline
    // instead of blocking on a cv nobody will signal.
    running_.store(false, std::memory_order_release);
    serveAllSync();
    stopObsPlane();
}

void
DynamicsServer::workerLoop(int lane)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            Lane &me = lanes_[lane];
            // Manual wait loop so the `waiting` flag brackets the
            // actual sleep: pushWork spends its single thief
            // notification only on lanes that really are asleep.
            // Under a cross-lane (stealing) policy an idle lane also
            // wakes for other lanes' queued work: probe the policy
            // (non-mutating beyond this lane's own pick scratch,
            // which serveOne refreshes anyway).
            // A quarantined lane sleeps until stop(): its queue was
            // failed over and pushWork never offers it new work.
            while (!(stop_ ||
                     (me.healthy &&
                      (!me.work.empty() ||
                       (policy_->crossLane() &&
                        policy_->pick(view_, lane, me.pick)))))) {
                me.waiting = true;
                me.cv.wait(lock);
                me.waiting = false;
            }
            // Finish queued work before honoring stop: jobs already
            // accepted complete. Work left on OTHER lanes belongs to
            // their workers (and to the straggler pass in stop()), so
            // no stealing past stop.
            if (stop_ && (me.work.empty() || !me.healthy))
                return;
        }
        serveOne(lane);
    }
}

void
DynamicsServer::wait(int job)
{
    if (!running()) {
        // Serve inline, but do NOT drain(): the accounting interval
        // (and job-record retirement) stays untouched, keeping sync
        // and async call sequences equivalent.
        serveAllSync();
        return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    // issuedLocked also covers never-issued ids: waiting on one
    // returns immediately instead of dereferencing past jobs_.
    done_cv_.wait(lock, [&] {
        return !issuedLocked(job) || jobRef(job).done;
    });
}

void
DynamicsServer::waitAll()
{
    if (!running()) {
        serveAllSync();
        return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_jobs_ == 0; });
}

} // namespace dadu::runtime
