/**
 * @file
 * The three DynamicsBackend implementations:
 *
 *  - CpuBatchedBackend:  host execution through the zero-allocation
 *                        algo::BatchedDynamics thread-pool engine
 *                        (measured wall-clock timing);
 *  - AcceleratorBackend: cycle-accurate simulation through
 *                        accel::Accelerator::run(), with simulated
 *                        cycles converted to modeled microseconds at
 *                        the configured clock;
 *  - AnalyticBackend:    the closed-form initiation-interval/latency
 *                        estimates of Accelerator::analytic() for the
 *                        timing, with the reference CPU kernels
 *                        supplying the numeric results.
 */

#ifndef DADU_RUNTIME_BACKENDS_H
#define DADU_RUNTIME_BACKENDS_H

#include <memory>
#include <vector>

#include "accel/accelerator.h"
#include "algorithms/batched.h"
#include "algorithms/rnea.h"
#include "algorithms/rnea_derivatives.h"
#include "algorithms/workspace.h"
#include "runtime/backend.h"

namespace dadu::runtime {

/**
 * Host CPU backend over the zero-allocation batched engine.
 *
 * Every Table I function runs on the engine: the batch fans out over
 * its thread pool in SoA lane packs, which read the requests and
 * write the results in place. A batch falls back to the
 * single-thread workspace reference kernels, point by point, when a
 * request carries external forces, when a derivative batch mixes
 * column masks (the packs share one plan), or when a ∆iFD request's
 * M⁻¹ input is not nv x nv. Steady-state submission with stable batch
 * sizes performs no heap allocation: results reuse the caller's
 * storage, and the engine keeps no per-point output arrays of its own
 * for this path.
 *
 * Not thread-safe (one submit at a time), like the engine it wraps.
 */
class CpuBatchedBackend : public DynamicsBackend
{
  public:
    CpuBatchedBackend(const RobotModel &robot, int threads);

    /**
     * An engine over @p pool instead of an owned worker set — the
     * clone() path: every clone of one backend shares the original's
     * host-wide pool (per-clone workspaces, shared workers), so
     * sharding CPU backends across DynamicsServer lanes on one host
     * serializes on the pool's bulk gate instead of oversubscribing
     * the cores.
     */
    CpuBatchedBackend(const RobotModel &robot,
                      std::shared_ptr<app::ThreadPool> pool);

    const char *name() const override { return "cpu-batched"; }
    const RobotModel &robot() const override { return robot_; }
    bool offloaded() const override { return false; }
    /**
     * A second engine over the same robot SHARING this backend's
     * thread pool (fresh workspaces). Concurrent submits to the
     * original and its clones are safe: batch dispatches serialize on
     * the shared pool's bulk gate, so the host's cores are never
     * oversubscribed.
     */
    std::unique_ptr<DynamicsBackend> clone() const override;
    SubmitStatus submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats = nullptr) override;
    using DynamicsBackend::submit;

    /** The wrapped engine (e.g. for thread-count introspection). */
    algo::BatchedDynamics &engine() { return engine_; }

  private:
    /** True when the batch can run on the engine (see the class doc). */
    bool enginePath(FunctionType fn, const DynamicsRequest *requests,
                    std::size_t count) const;
    /** One engine batch, straight from @p requests into @p results. */
    void runEngine(FunctionType fn, const DynamicsRequest *requests,
                   std::size_t count, DynamicsResult *results);

    const RobotModel &robot_;
    algo::BatchedDynamics engine_;
    algo::FdDerivatives fd_tmp_;  ///< fallback-path ∆FD scratch
    algo::ColumnPlan plan_;       ///< resolved column mask scratch
};

/**
 * Cycle-accurate accelerator backend: every batch actually runs
 * through the simulated FB/BF pipeline arrays, and total_us is the
 * simulated makespan at the configured clock.
 */
class AcceleratorBackend : public DynamicsBackend
{
  public:
    /** Non-owning: @p accel must outlive the backend. */
    explicit AcceleratorBackend(accel::Accelerator &accel);

    /** Owning: the backend keeps the (typically cloned) instance. */
    explicit AcceleratorBackend(std::unique_ptr<accel::Accelerator> accel);

    const char *name() const override { return "accel-sim"; }
    const RobotModel &robot() const override { return accel_->robot(); }
    bool offloaded() const override { return true; }
    /**
     * One more simulated accelerator of the same fitted bitstream
     * (Accelerator::clone(): no auto-fit, no SAP recompilation),
     * owned by the new backend — the sharding unit of the runtime.
     */
    std::unique_ptr<DynamicsBackend> clone() const override;
    SubmitStatus submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats = nullptr) override;
    using DynamicsBackend::submit;

    accel::Accelerator &accelerator() { return *accel_; }

  private:
    std::unique_ptr<accel::Accelerator> owned_;
    accel::Accelerator *accel_;
};

/**
 * Closed-form backend: timing comes from Accelerator::analytic()
 * (batch makespan = count·II + latency cycles at the configured
 * clock — the pre-runtime modeling path), numerics from the
 * single-thread workspace reference kernels so chained jobs can
 * still consume real stage outputs.
 */
class AnalyticBackend : public DynamicsBackend
{
  public:
    /** Non-owning: @p accel must outlive the backend. */
    explicit AnalyticBackend(accel::Accelerator &accel);

    const char *name() const override { return "accel-analytic"; }
    const RobotModel &robot() const override { return accel_.robot(); }
    bool offloaded() const override { return true; }
    /**
     * Shares the (immutable, read-only) accelerator model but owns
     * its workspaces, so clones can serve concurrent lanes.
     */
    std::unique_ptr<DynamicsBackend> clone() const override;
    SubmitStatus submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats = nullptr) override;
    using DynamicsBackend::submit;

  private:
    accel::Accelerator &accel_;
    algo::DynamicsWorkspace ws_;
    algo::FdDerivatives fd_tmp_;
    algo::ColumnPlan plan_; ///< resolved column mask scratch
};

} // namespace dadu::runtime

#endif // DADU_RUNTIME_BACKENDS_H
