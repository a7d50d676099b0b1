#include "runtime/backends.h"

#include <cassert>

#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "perf/timing.h"
#include "runtime/mask.h"

namespace dadu::runtime {

const char *
functionName(FunctionType fn)
{
    switch (fn) {
      case FunctionType::ID: return "ID";
      case FunctionType::FD: return "FD";
      case FunctionType::M: return "M";
      case FunctionType::Minv: return "Minv";
      case FunctionType::DeltaID: return "dID";
      case FunctionType::DeltaFD: return "dFD";
      case FunctionType::DeltaiFD: return "diFD";
    }
    return "?";
}

namespace {

using perf::nowUs;

/**
 * Single-point reference execution of one Table I function through
 * the workspace kernels, with optional column gating on the ∆
 * outputs. Shared by the CPU backend's non-batched functions and by
 * the analytic backend's functional path.
 */
void
referenceExecute(const RobotModel &robot, algo::DynamicsWorkspace &ws,
                 algo::FdDerivatives &fd_tmp, FunctionType fn,
                 const DynamicsRequest &req, DynamicsResult &out,
                 const algo::ColumnPlan *plan = nullptr)
{
    const std::vector<Vec6> *fext = req.fext.empty() ? nullptr : &req.fext;
    switch (fn) {
      case FunctionType::ID:
        algo::rnea(robot, ws, req.q, req.qd, req.qdd_or_tau, ws.rnea_res,
                   fext);
        out.tau = ws.rnea_res.tau;
        break;
      case FunctionType::FD:
        algo::forwardDynamics(robot, ws, req.q, req.qd, req.qdd_or_tau,
                              out.qdd, fext);
        break;
      case FunctionType::M:
        algo::crba(robot, ws, req.q, out.m);
        break;
      case FunctionType::Minv:
        algo::massMatrixInverse(robot, ws, req.q, out.minv);
        break;
      case FunctionType::DeltaID:
        algo::rnea(robot, ws, req.q, req.qd, req.qdd_or_tau, ws.rnea_res,
                   fext);
        out.tau = ws.rnea_res.tau;
        algo::rneaDerivatives(robot, ws, req.q, req.qd, req.qdd_or_tau,
                              ws.did, fext, false, plan);
        out.dtau_dq = ws.did.dtau_dq;
        out.dtau_dqd = ws.did.dtau_dqd;
        break;
      case FunctionType::DeltaFD:
        algo::fdDerivatives(robot, ws, req.q, req.qd, req.qdd_or_tau,
                            fd_tmp, fext, plan);
        out.qdd = fd_tmp.qdd;
        out.minv = fd_tmp.minv;
        out.dqdd_dq = fd_tmp.dqdd_dq;
        out.dqdd_dqd = fd_tmp.dqdd_dqd;
        break;
      case FunctionType::DeltaiFD:
        algo::fdDerivativesGivenAccel(robot, ws, req.q, req.qd,
                                      req.qdd_or_tau, req.minv, fd_tmp,
                                      fext, plan);
        out.qdd = req.qdd_or_tau;
        out.dqdd_dq = fd_tmp.dqdd_dq;
        out.dqdd_dqd = fd_tmp.dqdd_dqd;
        break;
    }
}

void
fillMeasuredStats(BatchStats *stats, double elapsed_us, std::size_t count)
{
    if (!stats)
        return;
    *stats = BatchStats{};
    stats->total_us = elapsed_us;
    stats->latency_us = count ? elapsed_us / count : 0.0;
    stats->throughput_mtasks =
        elapsed_us > 0.0 ? count / elapsed_us : 0.0;
}

} // namespace

// -----------------------------------------------------------------
// CpuBatchedBackend
// -----------------------------------------------------------------

CpuBatchedBackend::CpuBatchedBackend(const RobotModel &robot, int threads)
    : robot_(robot), engine_(robot, threads), ws_(robot)
{}

CpuBatchedBackend::CpuBatchedBackend(const RobotModel &robot,
                                     std::shared_ptr<app::ThreadPool> pool)
    : robot_(robot), engine_(robot, std::move(pool)), ws_(robot)
{}

std::unique_ptr<DynamicsBackend>
CpuBatchedBackend::clone() const
{
    // Clones share ONE host-wide worker pool (the bulk gate
    // serializes their dispatches); workspaces and staging stay
    // per-clone, so each clone remains independently submittable
    // from its own lane. The SIMD lane width carries over so a
    // fleet configured via setLaneWidth stays uniform.
    auto clone = std::make_unique<CpuBatchedBackend>(robot_, engine_.pool());
    clone->engine_.setLaneWidth(engine_.laneWidth());
    return clone;
}

SubmitStatus
CpuBatchedBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                          std::size_t count, DynamicsResult *results,
                          BatchStats *stats)
{
    // Deterministic rejection before anything executes: a malformed
    // seed set fails the whole batch, never a partial one.
    if (!masksValid(fn, requests, count, robot_.nv()))
        return SubmitStatus::InvalidRequest;

    // The engine's columnar fast path covers the batch-shaped
    // functions; external forces (rare in the MPC workloads) and the
    // remaining Table I entries take the single-thread reference
    // kernels. A gated ∆FD/∆iFD batch stays on the engine path only
    // when the mask is uniform across the batch (the iLQR client's
    // shape: one drift-derived seed shared by the whole horizon) —
    // the SoA pack then shares one resolved plan; mixed-mask batches
    // fall back to the per-point reference kernels. ∆iFD also needs
    // every request's M⁻¹ input at full joint-space shape.
    bool engine_path = fn == FunctionType::FD ||
                       fn == FunctionType::DeltaFD ||
                       fn == FunctionType::DeltaiFD ||
                       fn == FunctionType::Minv;
    for (std::size_t i = 0; engine_path && i < count; ++i) {
        if (!requests[i].fext.empty())
            engine_path = false;
    }
    if (engine_path &&
        (fn == FunctionType::DeltaFD || fn == FunctionType::DeltaiFD)) {
        for (std::size_t i = 1; engine_path && i < count; ++i) {
            if (requests[i].seed_cols != requests[0].seed_cols)
                engine_path = false;
        }
    }
    if (engine_path && fn == FunctionType::DeltaiFD) {
        const int nv = robot_.nv();
        for (std::size_t i = 0; engine_path && i < count; ++i) {
            if (static_cast<int>(requests[i].minv.rows()) != nv ||
                static_cast<int>(requests[i].minv.cols()) != nv)
                engine_path = false;
        }
    }

    const double t0 = nowUs();
    if (!engine_path) {
        const bool deriv = gatesColumns(fn);
        for (std::size_t i = 0; i < count; ++i) {
            const algo::ColumnPlan *plan = nullptr;
            if (deriv && !requests[i].seed_cols.empty()) {
                plan_.resolve(requests[i].seed_cols, robot_.nv());
                plan = &plan_;
            }
            referenceExecute(robot_, ws_, fd_tmp_, fn, requests[i],
                             results[i], plan);
        }
        fillMeasuredStats(stats, nowUs() - t0, count);
        return SubmitStatus::Ok;
    }

    // Stage the struct-of-arrays views the engine dispatches over
    // (grow-only; element assignment reuses each vector's capacity).
    // ∆iFD's M⁻¹ inputs are staged as pointers into the requests —
    // no nv x nv copies.
    if (q_.size() < count) {
        q_.resize(count);
        qd_.resize(count);
        tau_.resize(count);
    }
    if (fn == FunctionType::DeltaiFD && minv_in_.size() < count)
        minv_in_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        q_[i] = requests[i].q;
        if (fn != FunctionType::Minv) {
            qd_[i] = requests[i].qd;
            tau_[i] = requests[i].qdd_or_tau;
        }
        if (fn == FunctionType::DeltaiFD)
            minv_in_[i] = &requests[i].minv;
    }
    const algo::ColumnPlan *plan = nullptr;
    if ((fn == FunctionType::DeltaFD || fn == FunctionType::DeltaiFD) &&
        count > 0 && !requests[0].seed_cols.empty()) {
        plan_.resolve(requests[0].seed_cols, robot_.nv());
        plan = &plan_;
    }
    runEngine(fn, q_.data(), qd_.data(), tau_.data(), count, results, plan);
    fillMeasuredStats(stats, nowUs() - t0, count);
    return SubmitStatus::Ok;
}

void
CpuBatchedBackend::runEngine(FunctionType fn, const VectorX *q,
                             const VectorX *qd, const VectorX *tau,
                             std::size_t count, DynamicsResult *results,
                             const algo::ColumnPlan *plan)
{
    const int n = static_cast<int>(count);
    switch (fn) {
      case FunctionType::FD: {
        const auto &qdd = engine_.batchForwardDynamics(q, qd, tau, n);
        for (std::size_t i = 0; i < count; ++i)
            results[i].qdd = qdd[i];
        break;
      }
      case FunctionType::DeltaFD: {
        const auto &fd = engine_.batchFdDerivatives(q, qd, tau, n, plan);
        for (std::size_t i = 0; i < count; ++i) {
            results[i].qdd = fd[i].qdd;
            results[i].minv = fd[i].minv;
            results[i].dqdd_dq = fd[i].dqdd_dq;
            results[i].dqdd_dqd = fd[i].dqdd_dqd;
        }
        break;
      }
      case FunctionType::DeltaiFD: {
        // @p tau carries q̈ here (the request's qdd_or_tau slot).
        const auto &fd = engine_.batchFdDerivativesGivenAccel(
            q, qd, tau, minv_in_.data(), n, plan);
        for (std::size_t i = 0; i < count; ++i) {
            results[i].qdd = fd[i].qdd;
            results[i].dqdd_dq = fd[i].dqdd_dq;
            results[i].dqdd_dqd = fd[i].dqdd_dqd;
        }
        break;
      }
      case FunctionType::Minv: {
        const auto &minv = engine_.batchMinv(q, n);
        for (std::size_t i = 0; i < count; ++i)
            results[i].minv = minv[i];
        break;
      }
      default:
        assert(false && "engine path covers FD/DeltaFD/DeltaiFD/Minv only");
    }
}

// -----------------------------------------------------------------
// AcceleratorBackend
// -----------------------------------------------------------------

AcceleratorBackend::AcceleratorBackend(accel::Accelerator &accel)
    : accel_(&accel)
{}

AcceleratorBackend::AcceleratorBackend(
    std::unique_ptr<accel::Accelerator> accel)
    : owned_(std::move(accel)), accel_(owned_.get())
{}

std::unique_ptr<DynamicsBackend>
AcceleratorBackend::clone() const
{
    return std::make_unique<AcceleratorBackend>(accel_->clone());
}

SubmitStatus
AcceleratorBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                           std::size_t count, DynamicsResult *results,
                           BatchStats *stats)
{
    if (!masksValid(fn, requests, count, accel_->robot().nv()))
        return SubmitStatus::InvalidRequest;
    // DynamicsRequest/DynamicsResult ARE the accelerator task types
    // (accel::TaskInput/TaskOutput alias them), so the batch — mask
    // included — goes to the cycle-accurate simulator without
    // conversion.
    accel_->run(fn, requests, count, results, stats);
    return SubmitStatus::Ok;
}

// -----------------------------------------------------------------
// AnalyticBackend
// -----------------------------------------------------------------

AnalyticBackend::AnalyticBackend(accel::Accelerator &accel)
    : accel_(accel), ws_(accel.robot())
{}

std::unique_ptr<DynamicsBackend>
AnalyticBackend::clone() const
{
    return std::make_unique<AnalyticBackend>(accel_);
}

SubmitStatus
AnalyticBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats)
{
    const int nv = accel_.robot().nv();
    if (!masksValid(fn, requests, count, nv))
        return SubmitStatus::InvalidRequest;

    const bool deriv = gatesColumns(fn);
    for (std::size_t i = 0; i < count; ++i) {
        const algo::ColumnPlan *plan = nullptr;
        if (deriv && !requests[i].seed_cols.empty()) {
            plan_.resolve(requests[i].seed_cols, nv);
            plan = &plan_;
        }
        referenceExecute(accel_.robot(), ws_, fd_tmp_, fn, requests[i],
                         results[i], plan);
    }

    if (stats) {
        *stats = BatchStats{};
        // Priced for the union of the batch's live columns.
        const algo::ColumnPlan *pricing =
            unionPlan(fn, requests, count, nv, plan_);
        const accel::TimingEstimate est = accel_.analytic(fn, pricing);
        const double cycles = count * est.ii_cycles + est.latency_cycles;
        const double freq_hz = accel_.config().freq_mhz * 1e6;
        stats->cycles = static_cast<std::uint64_t>(cycles);
        stats->total_us = cycles / freq_hz * 1e6;
        stats->latency_us = est.latency_us;
        stats->throughput_mtasks = est.throughput_mtasks;
    }
    return SubmitStatus::Ok;
}

} // namespace dadu::runtime
