#include "runtime/server.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "perf/timing.h"
#include "runtime/mask.h"
#include "runtime/obs/aggregate.h"
#include "runtime/obs/endpoint.h"

namespace dadu::runtime {

DynamicsServer::DynamicsServer()
    : clock_(perf::nowUs), policy_(sched::makePolicy({}))
{}

DynamicsServer::DynamicsServer(DynamicsBackend &backend)
    : DynamicsServer()
{
    addBackend(backend);
}

DynamicsServer::~DynamicsServer()
{
    stop();
}

int
DynamicsServer::addBackend(DynamicsBackend &backend)
{
    assert(!running() && "register backends before start()");
    lanes_.emplace_back();
    lanes_.back().backend = &backend;
    admission_.addLane();
    reconfigureObs();
    return static_cast<int>(lanes_.size()) - 1;
}

void
DynamicsServer::setPolicy(const sched::SchedConfig &cfg)
{
    assert(!running() && "select the policy while the server is idle");
    sched_cfg_ = cfg;
    policy_ = sched::makePolicy(cfg);
    reconfigureObs();
}

void
DynamicsServer::reconfigureObs()
{
    // Idle-only (asserted by every caller): safe to drop and rebuild.
    // Enabling needs at least one lane; addBackend re-runs this, so a
    // setPolicy() before the first addBackend() still ends up traced.
    // The live plane goes too — the aggregator's streamer holds ring
    // cursors into the buffer being dropped. start() rebuilds it.
    endpoint_.reset();
    aggregator_.reset();
    trace_.reset();
    metrics_.reset();
    const int n = backendCount();
    if (n == 0)
        return;
    if (sched_cfg_.obs.trace)
        trace_ = std::make_unique<obs::TraceBuffer>(
            n, sched_cfg_.obs.ring_capacity);
    if (sched_cfg_.obs.metrics)
        metrics_ = std::make_unique<obs::MetricsRegistry>(n);
}

void
DynamicsServer::setAdmission(const sched::AdmissionConfig &cfg)
{
    assert(!running() && "configure admission while the server is idle");
    admission_.enableShedding(cfg);
}

void
DynamicsServer::setClock(Clock clock)
{
    assert(!running() && "set the clock while the server is idle");
    clock_ = clock;
}

sched::ItemView
DynamicsServer::QueueAdapter::item(int lane, std::size_t pos) const
{
    const WorkItem &w = server_->lanes_[lane].work[pos];
    const Job &job = server_->jobRef(w.job);
    sched::ItemView view;
    view.fn = job.fn;
    view.count = w.count;
    // Job ids are absolute submission indices: the FIFO key.
    view.seq = static_cast<std::uint64_t>(w.job);
    view.priority = job.priority;
    view.deadline_us = job.deadline_us;
    view.mask_sig = job.mask_sig;
    return view;
}

namespace {

/**
 * Tangent dimension a batch's seeds are validated against at submit:
 * the first request's q̇ size (the server knows no robot model; the
 * backend re-checks against its own).
 */
int
batchNv(const DynamicsRequest *requests, std::size_t count)
{
    return count > 0 && requests != nullptr
               ? static_cast<int>(requests[0].qd.size())
               : 0;
}

/**
 * Per-task FD-equivalent weight of a batch: the mean over the
 * requests of the live-column-aware functionWeight. Requires a
 * mask-valid batch (gatedLiveCount assumes valid seeds). Dense
 * batches return exactly functionWeight(fn).
 */
double
batchUnitWeight(FunctionType fn, const DynamicsRequest *requests,
                std::size_t count)
{
    const double dense = sched::functionWeight(fn);
    if (dense == 1.0 || count == 0 || requests == nullptr ||
        !gatesColumns(fn))
        return dense;
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const DynamicsRequest &r = requests[i];
        const int nv = static_cast<int>(r.qd.size());
        sum += sched::functionWeight(
            fn, algo::gatedLiveCount(r.seed_cols, nv), nv);
    }
    return sum / static_cast<double>(count);
}

} // namespace

int
DynamicsServer::leastLoadedLane()
{
    // Round-robin tie-breaking: equal loads are the common case
    // right after a sharded batch equalized the lanes, and a fixed
    // preference would then funnel every least-loaded job onto lane
    // 0. Start each scan one past the previous winner. Quarantined
    // lanes are never candidates; -1 when none is healthy.
    const int n = static_cast<int>(lanes_.size());
    int best = -1;
    for (int k = 0; k < n; ++k) {
        const int i = (rr_next_ + k) % n;
        if (!lanes_[i].healthy)
            continue;
        if (best < 0 || lanes_[i].load_weight < lanes_[best].load_weight)
            best = i;
    }
    if (best >= 0)
        rr_next_ = (best + 1) % n;
    return best;
}

void
DynamicsServer::pushWork(int lane, WorkItem item)
{
    lanes_[lane].work.push_back(item);
    lanes_[lane].cv.notify_one(); // the home lane's worker always cares
    if (policy_->crossLane()) {
        // Wake ONE sleeping lane as a potential thief (round-robin
        // so repeated pushes spread across thieves). One is enough:
        // thieves are symmetric — any idle lane's pick scans every
        // other lane — and the home lane's worker serves whatever
        // nobody steals, so liveness never depends on the thief.
        // Waking all sleepers would just pile duplicate cross-lane
        // scans onto mu_ for the losers of the race. The `waiting`
        // flag (not an empty queue) identifies real sleepers: a lane
        // mid-batch has an empty queue too, and spending the one
        // notification on it would leave an actual sleeper unwoken.
        const int n = static_cast<int>(lanes_.size());
        for (int k = 1; k <= n; ++k) {
            const int l = (thief_next_ + k) % n;
            if (l != lane && lanes_[l].waiting && lanes_[l].healthy) {
                lanes_[l].cv.notify_one();
                thief_next_ = l;
                break;
            }
        }
    }
}

double
DynamicsServer::predictDoneLocked(const Job &job, int shards,
                                  double now) const
{
    // What actually drains before each shard. Under EDF only
    // earlier-or-equal deadlines delay it (queued bulk is overtaken),
    // after the lane's in-flight batch; under FIFO everything
    // committed to the lane does, in-flight batch included. The job
    // completes with its last shard.
    const bool edf = sched_cfg_.kind == sched::PolicyKind::Edf;
    double done = 0.0;
    for (int s = 0; s < shards; ++s) {
        const Shard &sh = placement_[s];
        double w = lanes_[sh.lane].load_weight;
        if (edf) {
            w = 0.0;
            for (const WorkItem &item : lanes_[sh.lane].work) {
                const Job &q = jobRef(item.job);
                if (q.deadline_us <= job.deadline_us)
                    w += q.unit_weight * static_cast<double>(item.count);
            }
        }
        const double p = admission_.predictDoneUs(sh.lane, now, w, sh.count,
                                                  job.unit_weight, edf);
        if (p == 0.0)
            return 0.0;
        done = std::max(done, p);
    }
    return done;
}

int
DynamicsServer::waterFillLocked(std::size_t count, double w)
{
    // Least-loaded water-filling in FD-equivalent units: raise every
    // healthy lane's committed load toward one common level, spending
    // exactly `count` tasks of weight w — lighter lanes absorb more of
    // the batch, lanes already above the level get no shard. Levels
    // are computed in this-function task units (load / w), the
    // continuous level split back to integer tasks by largest
    // remainder. Quarantined lanes get no shard.
    const int n_lanes = backendCount();
    if (order_scratch_.size() < static_cast<std::size_t>(n_lanes)) {
        order_scratch_.resize(n_lanes);
        share_scratch_.resize(n_lanes);
        eff_scratch_.resize(n_lanes);
        fshare_scratch_.resize(n_lanes);
    }
    std::vector<std::size_t> &order = order_scratch_;
    std::vector<std::size_t> &share = share_scratch_;
    std::vector<double> &eff = eff_scratch_;
    std::vector<double> &fshare = fshare_scratch_;
    int n_fill = 0;
    for (int i = 0; i < n_lanes; ++i) {
        share[i] = 0;
        fshare[i] = 0.0;
        eff[i] = lanes_[i].load_weight / w;
        if (lanes_[i].healthy)
            order[n_fill++] = i;
    }
    if (n_fill == 0)
        return 0;
    std::sort(order.begin(), order.begin() + n_fill,
              [&](std::size_t a, std::size_t b) {
                  return eff[a] < eff[b];
              });
    // Find the water level L over the active (lightest) set: lifting
    // the k lightest lanes to L spends sum(L - eff) == count tasks.
    double prefix = 0.0;
    double level = 0.0;
    int active = n_fill;
    for (int k = 1; k <= n_fill; ++k) {
        prefix += eff[order[k - 1]];
        const double cand =
            (static_cast<double>(count) + prefix) / k;
        if (k == n_fill || cand <= eff[order[k]]) {
            level = cand;
            active = k;
            break;
        }
    }
    std::size_t assigned = 0;
    for (int j = 0; j < active; ++j) {
        const double f = std::max(0.0, level - eff[order[j]]);
        fshare[order[j]] = f;
        share[order[j]] = static_cast<std::size_t>(f);
        assigned += share[order[j]];
    }
    assert(assigned <= count);
    // Largest-remainder rounding; ties go to the lighter lane (the
    // earlier entry of the sorted order), matching the task-count
    // water-filling this replaces.
    for (std::size_t left = count - assigned; left > 0; --left) {
        int pick = -1;
        double best_frac = -1.0;
        for (int j = 0; j < active; ++j) {
            const std::size_t i = order[j];
            const double frac =
                fshare[i] - static_cast<double>(share[i]);
            if (frac > best_frac) {
                best_frac = frac;
                pick = static_cast<int>(i);
            }
        }
        ++share[pick];
        // Consumed its remainder: drop it behind untouched lanes.
        fshare[pick] = static_cast<double>(share[pick]) - 1.0;
    }
    // Shards in lane order, contiguous slices of the batch.
    placement_.clear();
    std::size_t begin = 0;
    for (int i = 0; i < n_lanes; ++i) {
        if (share[i] == 0)
            continue;
        placement_.push_back(Shard{i, begin, share[i]});
        begin += share[i];
    }
    assert(begin == count);
    return static_cast<int>(placement_.size());
}

int
DynamicsServer::placeLocked(std::size_t count, double w, int backend_id,
                            bool spread)
{
    if (spread)
        return waterFillLocked(count, w);
    int lane = backend_id >= 0 ? backend_id : leastLoadedLane();
    if (lane >= 0 && !lanes_[lane].healthy)
        lane = leastLoadedLane(); // explicit binding to a dead lane
    if (lane < 0)
        return 0;
    placement_.clear();
    placement_.push_back(Shard{lane, 0, count});
    return 1;
}

void
DynamicsServer::finishLocked(int id, JobOutcome outcome, int lane,
                             double now)
{
    Job &job = jobRef(id);
    assert(!job.done && outcome != JobOutcome::Pending);
    job.done = true;
    job.outcome = outcome;
    job.done_at_us = now;
    --pending_jobs_;
    const bool tagged = job.deadline_us != sched::kNoDeadline;
    const double e2e = job.done_at_us - job.submit_at_us;
    obs::EventKind kind = obs::EventKind::Completed;
    obs::Counter counter = obs::Counter::JobsCompleted;
    std::uint32_t a = static_cast<std::uint32_t>(outcome);
    if (outcome == JobOutcome::Completed) {
        // Only work that ran to the end is served work: it alone
        // enters stats_.jobs and, when tagged, one deadline bucket.
        ++stats_.jobs;
        if (tagged) {
            job.missed = job.done_at_us > job.deadline_us;
            ++(job.missed ? sched_stats_.deadline_misses
                          : sched_stats_.deadline_met);
        }
        a = job.missed ? 1u : 0u;
    } else if (outcome == JobOutcome::Rejected) {
        ++sched_stats_.rejected_jobs;
        kind = obs::EventKind::Rejected;
        counter = obs::Counter::JobsRejected;
    } else {
        ++sched_stats_.failed_jobs;
        kind = obs::EventKind::Failed;
        counter = obs::Counter::JobsFailed;
    }
    if (trace_)
        trace_->control().record(kind, job.done_at_us, id,
                                 static_cast<std::int16_t>(lane), job.fn,
                                 a, e2e);
    if (metrics_) {
        metrics_->add(counter);
        if (outcome == JobOutcome::Completed) {
            if (tagged)
                metrics_->add(job.missed ? obs::Counter::DeadlineMissed
                                         : obs::Counter::DeadlineMet);
            if (job.first_pick_at_us > 0.0)
                metrics_->histogram(job.fn, tagged, obs::LatKind::QueueWait)
                    .record(job.first_pick_at_us - job.submit_at_us);
            metrics_->histogram(job.fn, tagged, obs::LatKind::Service)
                .record(job.stats.total_us);
            metrics_->histogram(job.fn, tagged, obs::LatKind::EndToEnd)
                .record(e2e);
            if (job.predicted_done_us > 0.0)
                sched::Admission::recordError(*metrics_, job.submit_at_us,
                                              job.predicted_done_us,
                                              job.done_at_us);
        }
    }
    done_cv_.notify_all();
}

int
DynamicsServer::enqueueJob(Job job, int backend_id)
{
    // JobTag validation: a NaN deadline would poison every EDF
    // comparison — treat it as untagged. A deadline in the past stays
    // accepted (counted below as an immediate miss); shedding it
    // would turn a late answer into none.
    if (std::isnan(job.deadline_us))
        job.deadline_us = sched::kNoDeadline;
    const std::size_t count = job.count;
    // A malformed mask is caught here rather than as the backend's
    // InvalidRequest mid-serve: a deterministic Rejected outcome, no
    // retry loop and no lane quarantine for what is a client error.
    const bool masks_ok = masksValid(job.fn, job.requests, count,
                                     batchNv(job.requests, count));
    if (masks_ok) {
        job.unit_weight = batchUnitWeight(job.fn, job.requests, count);
        job.mask_sig = maskSignature(job.fn, job.requests, count);
    }
    const bool tagged = job.deadline_us != sched::kNoDeadline;
    std::lock_guard<std::mutex> lock(mu_);
    assert(backendCount() > 0);
    assert(backend_id == kLeastLoaded || backend_id == kAllLanes ||
           (backend_id >= 0 && backend_id < backendCount()));
    // One timestamp serves admission, the immediate-miss check and the
    // observability hooks.
    const double now = clock_();
    job.submit_at_us = now;
    // A spread placement water-fills over every healthy lane; any
    // other is one shard on the bound (or least-loaded) lane.
    const bool spread =
        backend_id == kAllLanes && backendCount() > 1 && count > 1;
    const int shards =
        masks_ok ? placeLocked(count, job.unit_weight, backend_id, spread)
                 : 0;
    // Each shard is judged on its own lane. A tagged job's one
    // prediction decides admission and is the estimate the trace and
    // the error gauges carry.
    std::size_t depth = 0;
    for (int s = 0; s < shards; ++s)
        depth = std::max(depth, lanes_[placement_[s].lane].work.size());
    if (tagged)
        job.predicted_done_us = predictDoneLocked(job, shards, now);
    JobOutcome early = JobOutcome::Pending;
    if (!masks_ok)
        early = JobOutcome::Rejected;
    else if (shards == 0)
        early = JobOutcome::Failed;
    else if (!admission_.admit(job.deadline_us, now, job.predicted_done_us,
                               depth))
        early = JobOutcome::Rejected;

    jobs_.push_back(std::move(job));
    const int id = static_cast<int>(retire_base_ + jobs_.size()) - 1;
    Job &j = jobs_.back();
    ++pending_jobs_;
    if (trace_)
        trace_->control().record(obs::EventKind::Submit, now, id, -1, j.fn,
                                 static_cast<std::uint32_t>(count),
                                 j.deadline_us);
    if (metrics_)
        metrics_->add(obs::Counter::JobsSubmitted);
    if (early != JobOutcome::Pending) {
        // Shed, or no healthy lane: the job still gets a record, so
        // wait() returns for it and jobOutcome() says why.
        finishLocked(id, early, -1, now);
        return id;
    }
    if (tagged && j.deadline_us <= now)
        ++sched_stats_.immediate_misses;
    j.shards = j.remaining = shards;
    if (trace_)
        trace_->control().record(
            obs::EventKind::Admitted, now, id, -1, j.fn,
            static_cast<std::uint32_t>(placement_[0].lane),
            j.predicted_done_us);
    for (int s = 0; s < shards; ++s) {
        const Shard &sh = placement_[s];
        lanes_[sh.lane].load_weight +=
            static_cast<double>(sh.count) * j.unit_weight;
        if (trace_)
            trace_->control().record(
                obs::EventKind::Enqueued, now, id,
                static_cast<std::int16_t>(sh.lane), j.fn,
                static_cast<std::uint32_t>(sh.count),
                lanes_[sh.lane].load_weight);
        pushWork(sh.lane, WorkItem{id, sh.begin, sh.count});
    }
    return id;
}

int
DynamicsServer::submit(FunctionType fn, const DynamicsRequest *requests,
                       std::size_t count, DynamicsResult *results,
                       int backend_id, sched::JobTag tag)
{
    Job job;
    job.fn = fn;
    job.requests = requests;
    job.results = results;
    job.count = count;
    job.priority = tag.priority;
    job.deadline_us = tag.deadline_us;
    return enqueueJob(std::move(job), backend_id);
}

int
DynamicsServer::submitSharded(FunctionType fn,
                              const DynamicsRequest *requests,
                              std::size_t count, DynamicsResult *results,
                              sched::JobTag tag)
{
    return submit(fn, requests, count, results, kAllLanes, tag);
}

namespace {

/**
 * Copy only the fields @p fn writes from a merged-batch staging
 * entry to the caller's result slot. The staging entries are reused
 * across merged batches, so a whole-struct copy would overwrite
 * caller fields the backend never touched with stale data from
 * earlier batches — potentially another client's outputs. The solo
 * path hands the backend caller storage directly and has no such
 * hazard; this keeps the merged path's untouched-field semantics
 * identical to it.
 */
void
copyResultFields(FunctionType fn, const DynamicsResult &src,
                 DynamicsResult &dst)
{
    switch (fn) {
      case FunctionType::ID:
        dst.tau = src.tau;
        break;
      case FunctionType::FD:
        dst.qdd = src.qdd;
        break;
      case FunctionType::M:
        dst.m = src.m;
        break;
      case FunctionType::Minv:
        dst.minv = src.minv;
        break;
      case FunctionType::DeltaID:
        dst.tau = src.tau;
        dst.dtau_dq = src.dtau_dq;
        dst.dtau_dqd = src.dtau_dqd;
        break;
      case FunctionType::DeltaFD:
        dst.qdd = src.qdd;
        dst.minv = src.minv;
        dst.dqdd_dq = src.dqdd_dq;
        dst.dqdd_dqd = src.dqdd_dqd;
        break;
      case FunctionType::DeltaiFD:
        dst.qdd = src.qdd;
        dst.dqdd_dq = src.dqdd_dq;
        dst.dqdd_dqd = src.dqdd_dqd;
        break;
    }
}

bool
allFinite(const linalg::VectorX &v)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        if (!std::isfinite(v[i]))
            return false;
    return true;
}

bool
allFinite(const linalg::MatrixX &m)
{
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (!std::isfinite(m(r, c)))
                return false;
    return true;
}

/**
 * NaN/inf guard over the fields @p fn writes (the same field sets
 * copyResultFields scatters) for all @p count results of a completed
 * batch. Paid only when SchedConfig::validate_results is on.
 */
bool
resultsFinite(FunctionType fn, const DynamicsResult *results,
              std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const DynamicsResult &r = results[i];
        switch (fn) {
          case FunctionType::ID:
            if (!allFinite(r.tau))
                return false;
            break;
          case FunctionType::FD:
            if (!allFinite(r.qdd))
                return false;
            break;
          case FunctionType::M:
            if (!allFinite(r.m))
                return false;
            break;
          case FunctionType::Minv:
            if (!allFinite(r.minv))
                return false;
            break;
          case FunctionType::DeltaID:
            if (!allFinite(r.tau) || !allFinite(r.dtau_dq) ||
                !allFinite(r.dtau_dqd))
                return false;
            break;
          case FunctionType::DeltaFD:
          case FunctionType::DeltaiFD:
            if (!allFinite(r.qdd) || !allFinite(r.dqdd_dq) ||
                !allFinite(r.dqdd_dqd))
                return false;
            break;
        }
    }
    return true;
}

/**
 * Merge one shard's stats into the job's: shards overlap in backend
 * time, so the makespan-like fields take the max and the aggregate
 * throughput is the sum; stall counts accumulate.
 */
void
mergeShardStats(BatchStats &job, const BatchStats &shard)
{
    job.cycles = std::max(job.cycles, shard.cycles);
    job.total_us = std::max(job.total_us, shard.total_us);
    job.latency_us = std::max(job.latency_us, shard.latency_us);
    job.throughput_mtasks += shard.throughput_mtasks;
    job.fifo_high_water =
        std::max(job.fifo_high_water, shard.fifo_high_water);
    job.fifo_stalls += shard.fifo_stalls;
}

} // namespace

bool
DynamicsServer::serveOne(int lane_id)
{
    Lane &lane = lanes_[lane_id];
    DynamicsBackend *backend = nullptr;
    FunctionType fn{};
    const DynamicsRequest *requests = nullptr;
    DynamicsResult *results = nullptr;
    std::size_t total = 0;
    bool merged = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!lane.healthy)
            return false;
        if (!policy_->pick(view_, lane_id, lane.pick))
            return false;
        ++sched_stats_.picks;
        const int src = lane.pick.lane;
        Lane &victim = lanes_[src];
        // Pop the picked positions back-to-front so earlier indices
        // stay valid; lane.picked ends up in ascending queue order.
        lane.picked.clear();
        lane.picked_req.clear();
        lane.picked_res.clear();
        for (auto it = lane.pick.positions.rbegin();
             it != lane.pick.positions.rend(); ++it) {
            lane.picked.push_back(victim.work[*it]);
            victim.work.erase(victim.work.begin() +
                              static_cast<std::ptrdiff_t>(*it));
        }
        std::reverse(lane.picked.begin(), lane.picked.end());
        const double t_pick = clock_();
        double weight = 0.0;
        for (const WorkItem &item : lane.picked) {
            Job &job = jobRef(item.job);
            lane.picked_req.push_back(job.requests + item.begin);
            lane.picked_res.push_back(job.results + item.begin);
            total += item.count;
            const double wgt = job.unit_weight * item.count;
            weight += wgt;
            if (job.first_pick_at_us == 0.0)
                job.first_pick_at_us = t_pick; // queue wait ends
            if (src != lane_id) {
                // Stolen: the committed load migrates with the item,
                // and the thief's backend will run it.
                victim.load_weight -= wgt;
                lane.load_weight += wgt;
                ++sched_stats_.steals;
            }
        }
        admission_.batchStarted(lane_id, t_pick, weight);
        backend = lane.backend;
        fn = jobRef(lane.picked.front().job).fn;
        merged = lane.picked.size() > 1;
        if (merged) {
            ++sched_stats_.coalesced_batches;
            sched_stats_.coalesced_items += lane.picked.size() - 1;
        }
        if (trace_) {
            // This thread is the one serving lane_id, so its ring
            // (not the victim's) is the SPSC-safe destination —
            // including for steal events.
            obs::TraceRing &ring = trace_->lane(lane_id);
            const int primary = lane.picked.front().job;
            ring.record(obs::EventKind::Picked, t_pick, primary,
                        static_cast<std::int16_t>(lane_id), fn,
                        static_cast<std::uint32_t>(lane.picked.size()),
                        static_cast<double>(lane.pick.overtaken));
            if (src != lane_id)
                ring.record(obs::EventKind::StolenFrom, t_pick, primary,
                            static_cast<std::int16_t>(lane_id), fn,
                            static_cast<std::uint32_t>(src),
                            static_cast<double>(lane.picked.size()));
            for (std::size_t i = 1; i < lane.picked.size(); ++i)
                ring.record(
                    obs::EventKind::CoalescedInto, t_pick,
                    lane.picked[i].job,
                    static_cast<std::int16_t>(lane_id), fn,
                    static_cast<std::uint32_t>(lane.picked[i].count));
        }
        if (metrics_) {
            if (src != lane_id)
                metrics_->add(obs::Counter::StolenItems, lane.picked.size());
            if (merged)
                metrics_->add(obs::Counter::CoalescedItems,
                              lane.picked.size() - 1);
        }
    }

    if (!merged) {
        requests = lane.picked_req.front();
        results = lane.picked_res.front();
    } else {
        // Gather the merged batch into lane staging (grow-only;
        // element assignment reuses capacity), one submission, then
        // scatter each job's slice back into its caller storage. The
        // caller-owned request/result arrays are stable while the
        // jobs are outstanding, so the copies run outside the lock.
        if (lane.co_req.size() < total) {
            lane.co_req.resize(total);
            lane.co_res.resize(total);
        }
        std::size_t off = 0;
        for (std::size_t i = 0; i < lane.picked.size(); ++i) {
            for (std::size_t j = 0; j < lane.picked[i].count; ++j)
                lane.co_req[off + j] = lane.picked_req[i][j];
            off += lane.picked[i].count;
        }
        requests = lane.co_req.data();
        results = lane.co_res.data();
    }

    // Bounded-retry execution: a TransientFailure (or a batch that
    // fails NaN validation) is resubmitted to the same backend up to
    // max_retries times; BackendDown or an exhausted budget
    // quarantines the lane and fails its work over.
    obs::TraceRing *ring = trace_ ? &trace_->lane(lane_id) : nullptr;
    const int primary = lane.picked.front().job;
    if (ring)
        ring->record(obs::EventKind::ExecBegin, clock_(), primary,
                     static_cast<std::int16_t>(lane_id), fn,
                     static_cast<std::uint32_t>(total));
    BatchStats stats;
    SubmitStatus status = SubmitStatus::Ok;
    std::size_t n_transient = 0, n_retries = 0, n_corrupt = 0;
    const int attempts = 1 + std::max(0, sched_cfg_.max_retries);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        stats = BatchStats{};
        status = backend->submit(fn, requests, total, results, &stats);
        if (status == SubmitStatus::Ok && sched_cfg_.validate_results &&
            !resultsFinite(fn, results, total))
        {
            ++n_corrupt;
            status = SubmitStatus::TransientFailure;
        }
        if (status == SubmitStatus::Ok ||
            status == SubmitStatus::BackendDown ||
            status == SubmitStatus::InvalidRequest)
            break;
        ++n_transient;
        if (attempt + 1 < attempts) {
            ++n_retries;
            if (ring)
                ring->record(obs::EventKind::Retry, clock_(),
                             primary, static_cast<std::int16_t>(lane_id),
                             fn, static_cast<std::uint32_t>(attempt + 1));
        }
    }
    if (ring)
        ring->record(obs::EventKind::ExecEnd, clock_(), primary,
                     static_cast<std::int16_t>(lane_id), fn,
                     static_cast<std::uint32_t>(status), stats.total_us);
    if (n_transient || n_corrupt) {
        std::lock_guard<std::mutex> lock(mu_);
        sched_stats_.transient_faults += n_transient;
        sched_stats_.retries += n_retries;
        sched_stats_.corrupt_results += n_corrupt;
        if (metrics_) {
            metrics_->add(obs::Counter::TransientFaults, n_transient);
            metrics_->add(obs::Counter::Retries, n_retries);
        }
    }
    if (status == SubmitStatus::InvalidRequest) {
        // A malformed request is a CLIENT error: the lane is healthy,
        // so no retry and no quarantine. Submit-time validation
        // catches bad masks up front; this arm covers whatever else a
        // backend rejects. The picked jobs fail explicitly — wait()
        // returns, outcome says why — a sharded one once its last
        // shard is back.
        std::lock_guard<std::mutex> lock(mu_);
        const double now = clock_();
        admission_.batchEnded(lane_id, now, false);
        for (const WorkItem &item : lane.picked) {
            Job &job = jobRef(item.job);
            lane.load_weight -= job.unit_weight * item.count;
            job.failed = true;
            if (--job.remaining == 0)
                finishLocked(item.job, JobOutcome::Failed, lane_id, now);
        }
        lane.picked.clear();
        lane.picked_req.clear();
        lane.picked_res.clear();
        return true; // progress: the bad batch left the queue
    }
    if (status != SubmitStatus::Ok) {
        failLane(lane_id);
        return true; // progress was made: the lane's work moved on
    }

    if (merged) {
        std::size_t off = 0;
        for (std::size_t i = 0; i < lane.picked.size(); ++i) {
            for (std::size_t j = 0; j < lane.picked[i].count; ++j)
                copyResultFields(fn, lane.co_res[off + j],
                                 lane.picked_res[i][j]);
            off += lane.picked[i].count;
        }
    }
    completePicked(lane_id, stats, total);
    return true;
}

void
DynamicsServer::failLane(int lane_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    Lane &lane = lanes_[lane_id];
    if (!lane.healthy)
        return;
    lane.healthy = false;
    ++sched_stats_.lane_deaths;
    // Only the lane's own serving thread reaches failLane, so its
    // ring is still this thread's to write — the death and every
    // requeue decision land on the dying lane's track.
    obs::TraceRing *ring = trace_ ? &trace_->lane(lane_id) : nullptr;
    const double t_death = clock_();
    if (ring)
        ring->record(obs::EventKind::LaneDeath, t_death, -1,
                     static_cast<std::int16_t>(lane_id),
                     FunctionType::FD,
                     static_cast<std::uint32_t>(lane.picked.size() +
                                                lane.work.size()));
    if (metrics_)
        metrics_->add(obs::Counter::LaneDeaths);
    // Everything the lane owed — the picked items whose batch just
    // failed, then its queued items — fails over to healthy siblings.
    // Only the lane's own serving thread calls failLane (after its
    // submit returned), so by the time the LAST lane dies no batch
    // can be in flight anywhere: a job failed here is truly
    // unservable, not merely unlucky.
    auto reroute = [&](const WorkItem &item) {
        Job &job = jobRef(item.job);
        if (job.done)
            return; // another item of the job already failed it
        const int dest = leastLoadedLane();
        if (dest < 0) {
            finishLocked(item.job, JobOutcome::Failed, lane_id, t_death);
            return;
        }
        if (ring)
            ring->record(obs::EventKind::Requeue, t_death, item.job,
                         static_cast<std::int16_t>(lane_id), job.fn,
                         static_cast<std::uint32_t>(dest),
                         static_cast<double>(item.count));
        // The item (a whole job or one shard) migrates its weight.
        lanes_[dest].load_weight += job.unit_weight * item.count;
        ++sched_stats_.requeued_items;
        pushWork(dest, item);
    };
    for (const WorkItem &item : lane.picked)
        reroute(item);
    lane.picked.clear();
    lane.picked_req.clear();
    lane.picked_res.clear();
    for (const WorkItem &item : lane.work)
        reroute(item);
    lane.work.clear();
    lane.load_weight = 0.0;
}

void
DynamicsServer::completePicked(int lane_id, const BatchStats &stats,
                               std::size_t total)
{
    std::lock_guard<std::mutex> lock(mu_);
    Lane &lane = lanes_[lane_id];
    lane.busy_us += stats.total_us;
    stats_.busy_us += stats.total_us;
    ++stats_.batches;
    stats_.tasks += total;
    const double now = clock_();
    admission_.batchEnded(lane_id, now, true);
    if (metrics_)
        metrics_->set(obs::Gauge::TaskUsEwma, admission_.taskUs(lane_id));
    const bool merged = lane.picked.size() > 1;

    for (const WorkItem &item : lane.picked) {
        Job &job = jobRef(item.job);
        lane.load_weight -= job.unit_weight * item.count;
        // A merged batch charges each job its task-proportional
        // share of the makespan-like fields; the rate/latency
        // fields describe the whole merged batch every job rode
        // in. A solo batch is attributed verbatim (the pre-QoS
        // accounting, bitwise-identical under default FIFO).
        BatchStats item_stats = stats;
        if (merged) {
            const double frac =
                static_cast<double>(item.count) /
                static_cast<double>(total);
            item_stats.cycles = static_cast<std::uint64_t>(
                static_cast<double>(stats.cycles) * frac);
            item_stats.total_us = stats.total_us * frac;
        }
        // Shards of one job overlap in backend time: the job costs
        // its slowest shard and its stats merge (max makespan). A
        // single shard's stats are taken verbatim.
        if (job.remaining == job.shards)
            job.stats = item_stats;
        else
            mergeShardStats(job.stats, item_stats);
        if (--job.remaining > 0)
            continue;
        // Failed when a sibling shard hit InvalidRequest: the job ends
        // once its last item is back.
        finishLocked(item.job,
                     job.failed ? JobOutcome::Failed
                                : JobOutcome::Completed,
                     lane_id, now);
    }
    if (metrics_)
        metrics_->setLaneLoad(lane_id, lane.load_weight);
}

double
DynamicsServer::snapshotAndReset(ServerStats *stats,
                                 sched::SchedStats *sstats)
{
    for (const Lane &lane : lanes_)
        stats_.makespan_us = std::max(stats_.makespan_us, lane.busy_us);
    const double busy = stats_.busy_us;
    if (stats)
        *stats = stats_;
    if (sstats)
        *sstats = sched_stats_;
    stats_ = ServerStats{};
    sched_stats_ = sched::SchedStats{};
    for (Lane &lane : lanes_)
        lane.busy_us = 0.0;
    // Retire the records of jobs that were already complete at the
    // PREVIOUS drain: their accounting had a full interval to be
    // read, and dropping them keeps a long-running server's job
    // history bounded. Jobs submitted since (done or not) survive
    // until the next drain.
    while (retire_base_ < retire_mark_ && !jobs_.empty() &&
           jobs_.front().done) {
        jobs_.pop_front();
        ++retire_base_;
    }
    retire_mark_ = retire_base_ + jobs_.size();
    return busy;
}

void
DynamicsServer::serveAllSync()
{
    // Serve lane by lane on the calling thread until no lane holds
    // work — including work enqueued while serving (concurrent
    // submits, failed-over items). The gate makes the whole
    // loop exclusive: a second synchronous client blocks here and,
    // once admitted, finds its work already served.
    std::lock_guard<std::mutex> serving(serve_mu_);
    for (bool any = true; any;) {
        any = false;
        for (int l = 0; l < static_cast<int>(lanes_.size()); ++l) {
            while (serveOne(l))
                any = true;
        }
    }
}

double
DynamicsServer::drain(ServerStats *stats, sched::SchedStats *sstats)
{
    if (running()) {
        waitAll();
        std::lock_guard<std::mutex> lock(mu_);
        return snapshotAndReset(stats, sstats);
    }
    serveAllSync();
    std::lock_guard<std::mutex> lock(mu_);
    return snapshotAndReset(stats, sstats);
}

sched::SchedStats
DynamicsServer::schedStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sched_stats_;
}

double
DynamicsServer::laneLoadWeight(int lane) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_[lane].load_weight;
}

std::size_t
DynamicsServer::pending() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pending_jobs_;
}

// The per-job accessors below are total functions of the id: a
// retired record (reads have until the second drain() after
// completion) or an id no submit call ever returned reads as a
// completed job with zeroed accounting — never UB, never a hang.

bool
DynamicsServer::jobDone(int job) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!issuedLocked(job))
        return true;
    return jobRef(job).done;
}

double
DynamicsServer::jobUs(int job) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!issuedLocked(job))
        return 0.0; // retired or never issued: zeroed, not UB
    return jobRef(job).stats.total_us;
}

BatchStats
DynamicsServer::jobStats(int job) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!issuedLocked(job))
        return BatchStats{};
    return jobRef(job).stats;
}

double
DynamicsServer::jobDoneAtUs(int job) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!issuedLocked(job))
        return 0.0;
    return jobRef(job).done_at_us;
}

bool
DynamicsServer::jobMissedDeadline(int job) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!issuedLocked(job))
        return false;
    return jobRef(job).missed;
}

JobOutcome
DynamicsServer::jobOutcome(int job) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!issuedLocked(job))
        return JobOutcome::Completed;
    return jobRef(job).outcome;
}

bool
DynamicsServer::laneHealthy(int lane) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (lane < 0 || lane >= static_cast<int>(lanes_.size()))
        return false;
    return lanes_[lane].healthy;
}

std::size_t
DynamicsServer::laneQueueDepth(int lane) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (lane < 0 || lane >= static_cast<int>(lanes_.size()))
        return 0;
    return lanes_[lane].work.size();
}

bool
DynamicsServer::metricsSnapshot(obs::MetricsRegistry &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!metrics_)
        return false;
    out = *metrics_;
    return true;
}

} // namespace dadu::runtime
