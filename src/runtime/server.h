/**
 * @file
 * DynamicsServer: a queueing front-end over the DynamicsBackend
 * interface, serving multiple clients over one or more backend
 * instances.
 *
 * Multiple clients (robots, workloads, benchmark harnesses) enqueue
 * jobs; the server runs them over the registered backends and
 * accounts the makespan in backend time. There is one job model: a
 * job is one flat request batch placed as 1..n (lane, begin, count)
 * shards, and the two submit calls only choose the placement —
 *
 *  - submit(): one shard, bound to one backend (or to the
 *    least-loaded one via kLeastLoaded);
 *  - submitSharded(): n shards, the batch split across ALL healthy
 *    backends by least-loaded water-filling, the shards executing
 *    concurrently (one per backend lane).
 *
 * Every job goes through one enqueue path (mask validation,
 * placement, admission, trace, lane load) and ends in one terminal
 * helper that books its outcome. One accounting rule covers both
 * placements: the shards merge to the max makespan, and jobStats()
 * is the merged stats. Every queued item is a flat slice of one job,
 * so any item may be coalesced or stolen.
 *
 * QoS scheduling (src/runtime/sched/): what a lane runs next is a
 * pluggable sched::SchedPolicy decision, selected via setPolicy().
 * Jobs optionally carry a sched::JobTag (priority + absolute
 * deadline); the EDF policy pops the earliest-deadline queued item
 * instead of the front, the coalescer merges small same-function
 * items of one lane into a single pipeline-filling backend batch
 * (the merged BatchStats split back per job in proportion to task
 * count), and the stealing policy lets a lane with nothing runnable
 * pull queued work from a lane stuck behind a long job. The default
 * FIFO policy reproduces the pre-QoS behavior exactly. Lane load is
 * accounted in FD-equivalent tasks (sched::functionWeight: ∆FD ≈
 * 1.5x FD), which is what kLeastLoaded and the sharding
 * water-filling balance.
 *
 * Fault tolerance (src/runtime/fault.h): submit() can fail. A
 * TransientFailure is retried on the same lane up to
 * SchedConfig::max_retries times (optionally with NaN/inf validation
 * of the batch results folded into the same budget); a BackendDown —
 * or an exhausted budget — quarantines the lane: its picked and
 * queued items fail over to healthy siblings. Only when NO healthy
 * lane remains does a job get JobOutcome::Failed.
 *
 * One clock (setClock, default perf::nowUs) times submission, pick,
 * completion and the deadline check. sched::Admission calibrates each
 * lane on it and predicts each tagged job's completion once; with
 * setAdmission() it sheds work at submission (JobOutcome::Rejected).
 * Rejected and Failed are explicit outcomes — wait() returns for them.
 *
 * Execution modes:
 *
 *  - synchronous (default): drain() serves every queued item on the
 *    calling thread, lane by lane — the degenerate single-threaded
 *    case, bitwise-identical in results and accounting to the async
 *    path;
 *  - asynchronous: start() spawns one worker thread per registered
 *    backend; submissions from any number of client threads flow
 *    through a thread-safe queue and execute as they arrive.
 *    wait(job) blocks one client on its own job; drain() becomes
 *    wait-for-all. stop() finishes queued work and joins.
 *
 * Each backend is driven by exactly one lane, so backends never see
 * concurrent submissions — the server provides the thread safety
 * that the backends themselves (batched engines, simulator state)
 * do not. Policies only reorder and regroup queued work under the
 * server lock; stolen items execute on the thief's backend, so the
 * one-submitter-per-backend invariant survives every policy.
 */

#ifndef DADU_RUNTIME_SERVER_H
#define DADU_RUNTIME_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/backend.h"
#include "runtime/obs/metrics.h"
#include "runtime/obs/trace.h"
#include "runtime/sched/admission.h"
#include "runtime/sched/policy.h"

namespace dadu::runtime::obs {
class ObsAggregator;  // aggregate.h
class StatsEndpoint;  // endpoint.h
} // namespace dadu::runtime::obs

namespace dadu::runtime {

/** Aggregate accounting of one drain() interval. */
struct ServerStats
{
    double busy_us = 0.0;     ///< total backend busy time (sum of batches)
    double makespan_us = 0.0; ///< max over backend lanes of accumulated busy
    std::size_t jobs = 0;     ///< jobs served
    std::size_t batches = 0;  ///< backend submissions issued
    std::size_t tasks = 0;    ///< individual requests executed
};

/**
 * Terminal disposition of a submitted job. Every job id returned by a
 * submit call reaches exactly one of the three terminal states, and
 * wait() returns for all of them — rejection and failure are explicit
 * outcomes, never silence.
 */
enum class JobOutcome
{
    Pending,   ///< queued or executing
    Completed, ///< results written (late completion still counts here)
    Rejected,  ///< shed by admission control; results never written
    Failed,    ///< no healthy lane could run it; results unreliable
};

/** Multi-client job server over one or more dynamics backends. */
class DynamicsServer
{
  public:
    /** backend_id wildcard: bind the job to the least-loaded lane. */
    static constexpr int kLeastLoaded = -1;

    /** Convenience: a server with @p backend pre-registered as id 0. */
    explicit DynamicsServer(DynamicsBackend &backend);

    DynamicsServer();

    /** Stops the worker threads if the server is still running. */
    ~DynamicsServer();

    DynamicsServer(const DynamicsServer &) = delete;
    DynamicsServer &operator=(const DynamicsServer &) = delete;

    /**
     * Register a backend (non-owning; must outlive the server).
     * Register every backend before start(); lanes are fixed while
     * the workers run.
     * @return the backend id to tag jobs with.
     */
    int addBackend(DynamicsBackend &backend);

    int backendCount() const { return static_cast<int>(lanes_.size()); }
    DynamicsBackend &backend(int id) { return *lanes_[id].backend; }

    /**
     * Select the scheduling policy (default: plain FIFO, no
     * coalescing, no stealing). Call while the server is idle —
     * before start(), or after stop() with the queues drained.
     * Stealing assumes interchangeable backends (clone()s of one
     * configured instance), like submitSharded().
     */
    void setPolicy(const sched::SchedConfig &cfg);

    const sched::SchedConfig &schedConfig() const { return sched_cfg_; }

    /**
     * Turn on admission shedding with @p cfg (off by default). Judged
     * once per submitted job under the server lock; a shed job gets
     * JobOutcome::Rejected and completes immediately without
     * executing. Call while the server is idle, like setPolicy().
     */
    void setAdmission(const sched::AdmissionConfig &cfg);

    /** The server's clock: absolute µs, monotonic. */
    using Clock = double (*)();

    /**
     * Replace the clock (default perf::nowUs) that JobTag deadlines
     * are absolute times on. A test seam, not a knob. Call while idle.
     */
    void setClock(Clock clock);

    /**
     * Enqueue a flat batch of @p count requests on backend
     * @p backend_id (kLeastLoaded picks the lane with the least
     * outstanding FD-equivalent work at submission time). Storage
     * for requests and results stays caller-owned and must live
     * until the job completes. @p tag optionally attaches QoS
     * metadata (EDF deadline, priority).
     * @return a job id for wait()/jobUs()/jobStats().
     */
    int submit(FunctionType fn, const DynamicsRequest *requests,
               std::size_t count, DynamicsResult *results,
               int backend_id = 0, sched::JobTag tag = {});

    /**
     * Enqueue a flat batch split across ALL registered backends:
     * least-loaded water-filling assigns each lane a contiguous
     * shard sized to equalize outstanding FD-equivalent work, the
     * shards run concurrently, and the job's stats merge to the max
     * shard makespan (shards overlap in backend time). All backends
     * must serve the same robot — register clone()s of one
     * configured backend.
     */
    int submitSharded(FunctionType fn, const DynamicsRequest *requests,
                      std::size_t count, DynamicsResult *results,
                      sched::JobTag tag = {});

    /**
     * Spawn one worker thread per registered backend; submissions
     * from any thread then execute asynchronously. No-op when
     * already running.
     */
    void start();

    /**
     * Finish all queued work and join the workers. Work submitted
     * concurrently with stop() that a worker no longer picks up is
     * served synchronously before stop() returns, so accepted jobs
     * always complete. start()/stop()/drain() themselves are
     * control-plane calls: invoke them from one thread.
     */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /**
     * Block until @p job completes. In synchronous mode this serves
     * pending work inline on the calling thread (without touching
     * the drain() accounting interval); concurrent sync waiters
     * serialize on an internal serving gate.
     */
    void wait(int job);

    /** Block until every submitted job has completed. */
    void waitAll();

    bool jobDone(int job) const;

    /** Jobs enqueued but not yet completed. */
    std::size_t pending() const;

    /**
     * Serve every queued job (synchronous mode) or block until the
     * workers have (asynchronous mode), then report and reset the
     * accounting interval. @p sstats additionally receives what the
     * scheduling policy did over the interval (picks, merges,
     * steals, deadline outcomes).
     * @return the total backend busy time in microseconds since the
     *         previous drain.
     */
    double drain(ServerStats *stats = nullptr,
                 sched::SchedStats *sstats = nullptr);

    /** Scheduling telemetry accumulated since the last drain(). */
    sched::SchedStats schedStats() const;

    /**
     * Committed FD-equivalent work of one lane (queued and executing
     * tasks weighted by sched::functionWeight) — what kLeastLoaded
     * and the sharding water-filling balance, exposed so admission
     * control can predict queueing delay before tagging a deadline.
     */
    double laneLoadWeight(int lane) const;

    /**
     * Backend busy time of one completed job (µs): the max over its
     * concurrent shards. A job served inside a coalesced batch is
     * charged its task-proportional share of the merged batch time.
     * Per-job records are retired by the second drain() after
     * completion — read before then.
     */
    double jobUs(int job) const;

    /**
     * Per-job stats: the shards merged (max makespan/cycles, summed
     * stalls; one shard verbatim). For a job served inside a
     * coalesced batch, the makespan-like fields are its
     * task-proportional share and the rate/latency fields are the
     * merged batch's. Read after the job completed; a retired record
     * (like jobUs(), second drain() after completion) returns zeroed
     * stats.
     */
    BatchStats jobStats(int job) const;

    /**
     * Completion time of a finished job on the server's clock — the
     * instant its deadline was checked. 0 for unfinished jobs.
     */
    double jobDoneAtUs(int job) const;

    /**
     * True when the job carried a deadline and completed after it.
     * Every tagged job lands in exactly one of deadline_met /
     * deadline_misses of SchedStats — tagged work is never dropped
     * or parked, late jobs still complete and are reported here.
     */
    bool jobMissedDeadline(int job) const;

    /**
     * Terminal disposition of a job. Pending until completion;
     * Rejected/Failed jobs are done the moment they are recorded
     * (wait() on them returns immediately). Like the other per-job
     * accessors, reads of retired or never-issued ids are safe and
     * return Completed.
     */
    JobOutcome jobOutcome(int job) const;

    /**
     * False once the lane has been quarantined: its backend reported
     * BackendDown or exhausted the transient-retry budget, its queued
     * work failed over to siblings, and it will not be offered work
     * again until the server is reconfigured.
     */
    bool laneHealthy(int lane) const;

    /**
     * The lifecycle trace rings, or null when SchedConfig::obs.trace
     * is off. Rebuilt (emptied) by setPolicy()/addBackend(). Clients
     * wanting their own span track (MpcSession, iLQR) claim a ring
     * AFTER the final setPolicy()/addBackend() call — reconfiguring
     * invalidates claimed rings. Read the rings only while the server
     * is idle (stopped, or drained in sync mode).
     */
    obs::TraceBuffer *traceBuffer() { return trace_.get(); }
    const obs::TraceBuffer *traceBuffer() const { return trace_.get(); }

    /**
     * The metrics registry (histograms / counters / gauges), or null
     * when SchedConfig::obs.metrics is off. Mutated under the server
     * lock; snapshot (copy) it while the server is idle — or at any
     * time via metricsSnapshot(), which copies under the lock.
     */
    const obs::MetricsRegistry *metricsRegistry() const
    {
        return metrics_.get();
    }

    /**
     * Copy the live registry into @p out under the server lock —
     * safe while the workers are serving (unlike metricsRegistry(),
     * this is the aggregator's read path). Returns false (leaving
     * @p out untouched) when metrics are off.
     */
    bool metricsSnapshot(obs::MetricsRegistry &out) const;

    /** Work items queued on @p lane right now (thread-safe). */
    std::size_t laneQueueDepth(int lane) const;

    /**
     * The live-telemetry aggregator, or null when SchedConfig::obs
     * requests none (no aggregate_interval_ms, stats_port, or
     * stream_trace_path). Created by start(); survives stop() — its
     * final tick and the streamed-trace totals stay readable until
     * the next setPolicy()/addBackend()/start().
     */
    obs::ObsAggregator *aggregator() { return aggregator_.get(); }
    const obs::ObsAggregator *aggregator() const { return aggregator_.get(); }

    /**
     * The embedded stats endpoint (live while running), or null when
     * SchedConfig::obs.stats_port < 0. Its port() resolves ephemeral
     * binds (stats_port = 0).
     */
    obs::StatsEndpoint *statsEndpoint() { return endpoint_.get(); }

  private:
    struct Job
    {
        FunctionType fn{};
        const DynamicsRequest *requests = nullptr;
        DynamicsResult *results = nullptr;
        std::size_t count = 0;
        int shards = 1;         ///< work items of the placement
        int remaining = 0;      ///< items still out
        bool failed = false;    ///< an item hit InvalidRequest
        bool done = false;
        JobOutcome outcome = JobOutcome::Pending;
        int priority = 0;                           ///< EDF tie-break
        double deadline_us = sched::kNoDeadline;    ///< absolute target
        /**
         * Per-task FD-equivalent weight, live-column aware: the mean
         * over the batch of sched::functionWeight(fn, live, nv).
         * Dense batches get exactly functionWeight(fn), so ungated
         * load accounting is bitwise-unchanged. Every load_weight
         * credit/debit of this job uses THIS value, keeping the
         * lane-load books balanced.
         */
        double unit_weight = 1.0;
        /** Batch mask signature (runtime::maskSignature; 0 = dense). */
        std::uint64_t mask_sig = 0;
        double done_at_us = 0.0; ///< completion time (done only)
        bool missed = false;     ///< completed after its deadline
        BatchStats stats{}; ///< shards merged (jobStats, jobUs)
        double submit_at_us = 0.0;     ///< submission time
        double first_pick_at_us = 0.0; ///< first serve pick (queue wait end)
        /** The admission prediction (tagged jobs; 0 = none). */
        double predicted_done_us = 0.0;
    };

    /** One shard of a job's placement: a slice bound to a lane. */
    struct Shard
    {
        int lane = 0;
        std::size_t begin = 0;
        std::size_t count = 0;
    };

    /** One queued slice of a job, bound to a lane. */
    struct WorkItem
    {
        int job = 0;
        std::size_t begin = 0;
        std::size_t count = 0;
    };

    /**
     * One backend with its work queue and accounting. load_weight is
     * the lane's COMMITTED work in FD-equivalent tasks
     * (sched::functionWeight): its queued items and the batch it is
     * executing, each charged at enqueue and paid back when its batch
     * completes (or moved with it when stolen or failed over). Each
     * lane has its own worker wakeup cv so a pushed item wakes only
     * the target lane's worker (all waits still use the shared mu_;
     * cross-lane policies additionally wake ONE sleeping lane —
     * flagged by `waiting` — as a potential thief).
     *
     * The pick/picked/gather fields are the serve-step scratch of
     * the ONE thread currently serving this lane (its async worker,
     * or the synchronous serving loop) — grow-only, reused, and
     * never touched concurrently.
     */
    struct Lane
    {
        DynamicsBackend *backend = nullptr;
        std::deque<WorkItem> work;
        std::condition_variable cv;
        bool waiting = false;       ///< worker asleep in cv.wait (async)
        bool healthy = true;        ///< false once quarantined
        double load_weight = 0.0; ///< committed FD-equivalent tasks
        double busy_us = 0.0;     ///< accumulated batch time (interval)
        sched::Pick pick;                    ///< policy decision scratch
        std::vector<WorkItem> picked;        ///< items popped this serve
        std::vector<const DynamicsRequest *> picked_req; ///< per item
        std::vector<DynamicsResult *> picked_res;        ///< per item
        std::vector<DynamicsRequest> co_req; ///< merged-batch gather
        std::vector<DynamicsResult> co_res;  ///< merged-batch scatter
    };

    /** sched::QueueView over the lanes (server mutex held). */
    class QueueAdapter : public sched::QueueView
    {
      public:
        explicit QueueAdapter(const DynamicsServer *server)
            : server_(server)
        {}
        int lanes() const override
        {
            return static_cast<int>(server_->lanes_.size());
        }
        std::size_t depth(int lane) const override
        {
            return server_->lanes_[lane].work.size();
        }
        sched::ItemView item(int lane, std::size_t pos) const override;

      private:
        const DynamicsServer *server_;
    };

    /** backend_id of submitSharded(): water-fill over every lane. */
    static constexpr int kAllLanes = -2;

    // All private helpers below assume mu_ is held unless noted.
    /**
     * The one enqueue path (WITHOUT mu_): validate the masks, place
     * the shards, admit, record Submit/Admitted/Enqueued, charge the
     * lane loads and push the work.
     */
    int enqueueJob(Job job, int backend_id);
    /**
     * Fill placement_ with the job's shards: water-filled over the
     * healthy lanes when @p spread, else one shard on @p backend_id
     * (or the least-loaded lane). @return the shard count, 0 when no
     * lane is healthy.
     */
    int placeLocked(std::size_t count, double w, int backend_id,
                    bool spread);
    /** Least-loaded water-filling of @p count tasks of weight @p w. */
    int waterFillLocked(std::size_t count, double w);
    int leastLoadedLane();
    void pushWork(int lane, WorkItem item);
    Job &jobRef(int id) { return jobs_[id - retire_base_]; }
    const Job &jobRef(int id) const { return jobs_[id - retire_base_]; }
    /** True when @p id names a live (non-retired, issued) record. */
    bool issuedLocked(int id) const
    {
        return id >= 0 && static_cast<std::size_t>(id) >= retire_base_ &&
               static_cast<std::size_t>(id) < retire_base_ + jobs_.size();
    }
    /**
     * The only code that ends a job: sets done/outcome/done_at_us,
     * books the outcome (stats_.jobs and a deadline bucket, or
     * rejected_jobs / failed_jobs) and its metrics, records the one
     * terminal trace event on the control ring, releases
     * pending_jobs_ and wakes waiters. @p lane is the lane that saw
     * the end (-1 at submission), at clock time @p now.
     */
    void finishLocked(int id, JobOutcome outcome, int lane, double now);
    /**
     * The one admission prediction of a tagged @p job placed as
     * placement_'s first @p shards shards: its last shard's
     * completion. 0 when a shard's lane is uncalibrated.
     */
    double predictDoneLocked(const Job &job, int shards, double now) const;
    /** Rebuild trace_/metrics_ to match sched_cfg_.obs and lane count. */
    void reconfigureObs();
    /** Create + start aggregator/endpoint per sched_cfg_.obs (from start()). */
    void startObsPlane();
    /** Final aggregator tick + endpoint shutdown (from stop()). */
    void stopObsPlane();
    /**
     * Quarantine @p lane after an unrecoverable fault: requeue its
     * picked and queued items onto healthy siblings, fail jobs when
     * no healthy lane remains.
     */
    void failLane(int lane);
    /** Pop + execute one policy pick on @p lane. WITHOUT mu_ held. */
    bool serveOne(int lane);
    /** Batch completion for every item of the lane's current pick:
     *  accounting, shard merge, job completion. */
    void completePicked(int lane, const BatchStats &stats,
                        std::size_t total);
    /**
     * Serve every lane on this thread until empty (WITHOUT mu_).
     * Whole-loop exclusive via serve_mu_: concurrent synchronous
     * clients (wait() without start()) serialize here, so a backend
     * never sees two submitting threads.
     */
    void serveAllSync();
    void workerLoop(int lane);
    double snapshotAndReset(ServerStats *stats,
                            sched::SchedStats *sstats);

    mutable std::mutex mu_;
    std::mutex serve_mu_; ///< one synchronous serving loop at a time
    std::condition_variable done_cv_; ///< clients: job / queue completion
    std::deque<Lane> lanes_; ///< deque: Lane owns a cv, never moves
    /**
     * Live job records (deque: retirement pops the front).
     * Job ids are absolute submission indices; jobs_[i] holds id
     * retire_base_ + i. drain() retires records of jobs that were
     * already complete at the PREVIOUS drain, so a long-running
     * server does not accumulate history — which bounds the lifetime
     * of per-job accounting: read jobUs()/jobStats() before the
     * second drain() after the job completed.
     */
    std::deque<Job> jobs_;
    std::size_t retire_base_ = 0; ///< id of jobs_.front()
    std::size_t retire_mark_ = 0; ///< ids below this may retire
    std::vector<std::thread> workers_;
    // Grow-only placement scratch, reused under mu_ so steady-state
    // submission does not allocate while holding the lock.
    std::vector<Shard> placement_;
    std::vector<std::size_t> order_scratch_, share_scratch_;
    std::vector<double> eff_scratch_, fshare_scratch_;
    std::atomic<bool> running_{false};
    bool stop_ = false;
    std::size_t pending_jobs_ = 0;
    int rr_next_ = 0;    ///< round-robin cursor for load ties
    int thief_next_ = 0; ///< round-robin cursor for steal wakeups
    ServerStats stats_{}; ///< accounting since the last drain()
    sched::SchedConfig sched_cfg_{};
    Clock clock_;
    std::unique_ptr<sched::SchedPolicy> policy_;
    sched::Admission admission_;
    sched::SchedStats sched_stats_{}; ///< policy telemetry (interval)
    /**
     * Observability state; null when the matching ServerObsConfig
     * flag is off, so every hook is `if (trace_)` / `if (metrics_)`.
     * Lane ring i is written only by the thread serving lane i; the
     * control ring only under mu_; the registry only under mu_.
     */
    std::unique_ptr<obs::TraceBuffer> trace_;
    std::unique_ptr<obs::MetricsRegistry> metrics_;
    /**
     * Live telemetry plane: built by start() when sched_cfg_.obs asks
     * for any of it, torn down (endpoint) / finalized (aggregator) by
     * stop(). The aggregator object outlives stop() so its totals and
     * time-series stay readable; reconfigureObs() destroys both.
     */
    std::unique_ptr<obs::ObsAggregator> aggregator_;
    std::unique_ptr<obs::StatsEndpoint> endpoint_;
    QueueAdapter view_{this};
};

} // namespace dadu::runtime

#endif // DADU_RUNTIME_SERVER_H
