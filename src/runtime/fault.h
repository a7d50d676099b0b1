/**
 * @file
 * FaultInjectingBackend: a deterministic, seeded fault-injection
 * decorator over any DynamicsBackend.
 *
 * Real accelerators wedge, drop batches, and return garbage under
 * thermal or link faults; the serving layer's failover and retry
 * machinery has to be exercised against those behaviours without
 * waiting for hardware to misbehave on cue. This decorator wraps an
 * inner backend and executes a FaultPlan — latency spikes, transient
 * submit failures, NaN-corrupted results, and permanent death after a
 * batch budget — with every draw taken from a private seeded PRNG so
 * a failing run replays bit-for-bit.
 *
 * The decorator preserves the inner backend's allocation contract:
 * the steady submit path performs no heap allocation of its own
 * (the PRNG and distributions live inline), so zero-alloc backends
 * stay zero-alloc when wrapped.
 */

#ifndef DADU_RUNTIME_FAULT_H
#define DADU_RUNTIME_FAULT_H

#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "runtime/backend.h"
#include "runtime/obs/trace.h"

namespace dadu::runtime {

class DynamicsServer;

/**
 * Deterministic fault schedule for one wrapped backend. Probabilities
 * are per submitted batch and drawn from a PRNG seeded with `seed`,
 * so two decorators with equal plans fault identically. The
 * counter-based knobs (`transient_every_n`, `die_after_batches`)
 * exist for tests that need exact fault positions, not just rates.
 */
struct FaultPlan
{
    unsigned seed = 1u; ///< PRNG seed; clones offset it per replica

    /// Probability a batch's reported makespan is inflated.
    double latency_spike_prob = 0.0;
    /// Inflation added to BatchStats::total_us on a spike.
    double latency_spike_us = 0.0;
    /// Also sleep the spike in wall time (for wall-clock benches).
    bool spike_wall = false;

    /// Probability a batch fails without executing (retryable).
    double transient_fail_prob = 0.0;
    /// If > 0, deterministically fail every Nth batch instead.
    int transient_every_n = 0;

    /// Probability an executed batch has one result NaN-corrupted.
    double corrupt_prob = 0.0;

    /// If >= 0, report BackendDown after this many executed batches.
    long die_after_batches = -1;
};

/**
 * Decorator that wraps an inner backend and injects the faults of a
 * FaultPlan into its submit path. Not thread-safe across concurrent
 * submits (same contract as the backends it wraps: one submitter per
 * instance, which DynamicsServer guarantees per lane).
 */
class FaultInjectingBackend final : public DynamicsBackend
{
  public:
    /** Wrap a borrowed backend; @p inner must outlive the decorator. */
    FaultInjectingBackend(DynamicsBackend &inner, const FaultPlan &plan);

    /** Wrap an owned backend. */
    FaultInjectingBackend(std::unique_ptr<DynamicsBackend> inner,
                          const FaultPlan &plan);

    const char *name() const override { return name_.c_str(); }
    const RobotModel &robot() const override { return inner_->robot(); }
    bool offloaded() const override { return inner_->offloaded(); }

    /**
     * Clones the inner backend and wraps the clone with the same
     * plan, seed offset per replica so sharded lanes fault
     * independently. Null when the inner backend cannot clone.
     */
    std::unique_ptr<DynamicsBackend> clone() const override;

    SubmitStatus submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats = nullptr) override;

    /** Kill the backend immediately (next submit reports BackendDown). */
    void kill() { dead_ = true; }

    /** True once the plan (or kill()) has declared the backend dead. */
    bool dead() const { return dead_; }

    const FaultPlan &plan() const { return plan_; }

    /**
     * Record every injected fault as an obs::EventKind::Fault on lane
     * @p lane's trace ring of @p server, stamped with the server's
     * clock (DynamicsServer::clock), so the faults sit on the same
     * timeline as the exec/retry events they caused. A server without
     * a trace buffer detaches (the default: no fault events). The
     * decorator runs on its lane's serving thread, so recording on
     * that lane's ring keeps the ring SPSC. Call after the server's
     * final setPolicy (which rebuilds the trace buffer) and setClock.
     */
    void attachTrace(DynamicsServer &server, int lane);

    // Fault counters, for tests asserting exact accounting.
    long batchesSeen() const { return batches_; }
    long transientFaults() const { return transient_faults_; }
    long corruptedBatches() const { return corrupted_; }
    long latencySpikes() const { return spikes_; }

  private:
    bool draw(double prob);
    void corruptOne(FunctionType fn, DynamicsResult *results,
                    std::size_t count);

    DynamicsBackend *inner_;
    std::unique_ptr<DynamicsBackend> owned_;
    FaultPlan plan_;
    std::string name_;
    std::mt19937 rng_;
    bool dead_ = false;
    long batches_ = 0;
    long executed_ = 0;
    long transient_faults_ = 0;
    long corrupted_ = 0;
    long spikes_ = 0;
    mutable unsigned clone_count_ = 0;
    obs::TraceRing *trace_ring_ = nullptr; ///< not cloned; attach per lane
    int trace_lane_ = -1;
    double (*clock_)() = nullptr; ///< the attached server's clock
};

} // namespace dadu::runtime

#endif // DADU_RUNTIME_FAULT_H
