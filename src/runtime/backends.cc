#include "runtime/backends.h"

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
 * outputs. Shared by the CPU backend's fallback (external forces,
 * mixed masks) and by the analytic backend's functional path.
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
    : robot_(robot), engine_(robot, threads)
{}

CpuBatchedBackend::CpuBatchedBackend(const RobotModel &robot,
                                     std::shared_ptr<app::ThreadPool> pool)
    : robot_(robot), engine_(robot, std::move(pool))
{}

std::unique_ptr<DynamicsBackend>
CpuBatchedBackend::clone() const
{
    // Clones share ONE host-wide worker pool (the bulk gate
    // serializes their dispatches); workspaces stay per-clone, so
    // each clone remains independently submittable from its own
    // lane. The SIMD lane width carries over so a fleet configured
    // via setLaneWidth stays uniform.
    auto clone = std::make_unique<CpuBatchedBackend>(robot_, engine_.pool());
    clone->engine_.setLaneWidth(engine_.laneWidth());
    return clone;
}

bool
CpuBatchedBackend::enginePath(FunctionType fn,
                              const DynamicsRequest *requests,
                              std::size_t count) const
{
    for (std::size_t i = 0; i < count; ++i)
        if (!requests[i].fext.empty())
            return false;
    if (gatesColumns(fn))
        for (std::size_t i = 1; i < count; ++i)
            if (requests[i].seed_cols != requests[0].seed_cols)
                return false;
    if (fn == FunctionType::DeltaiFD) {
        const auto nv = static_cast<std::size_t>(robot_.nv());
        for (std::size_t i = 0; i < count; ++i)
            if (requests[i].minv.rows() != nv ||
                requests[i].minv.cols() != nv)
                return false;
    }
    return true;
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

    const double t0 = nowUs();
    if (enginePath(fn, requests, count)) {
        runEngine(fn, requests, count, results);
    } else {
        // Per-point reference kernels on the engine's own workspace.
        algo::DynamicsWorkspace &ws = engine_.scratchWorkspace();
        const bool deriv = gatesColumns(fn);
        for (std::size_t i = 0; i < count; ++i) {
            const algo::ColumnPlan *plan = nullptr;
            if (deriv && !requests[i].seed_cols.empty()) {
                plan_.resolve(requests[i].seed_cols, robot_.nv());
                plan = &plan_;
            }
            referenceExecute(robot_, ws, fd_tmp_, fn, requests[i],
                             results[i], plan);
        }
    }
    fillMeasuredStats(stats, nowUs() - t0, count);
    return SubmitStatus::Ok;
}

void
CpuBatchedBackend::runEngine(FunctionType fn,
                             const DynamicsRequest *requests,
                             std::size_t count, DynamicsResult *results)
{
    using Function = algo::BatchedDynamics::Function;
    using Req = DynamicsRequest;
    using Res = DynamicsResult;
    // The engine reads the requests and writes the results in place,
    // each field through a strided view: nothing is staged or copied.
    const algo::BatchedDynamics::Inputs in{
        {requests, &Req::q},
        {requests, &Req::qd},
        {requests, &Req::qdd_or_tau},
        {requests, &Req::minv},
    };
    algo::BatchedDynamics::Outputs out;
    Function f = Function::Fd;
    switch (fn) {
      case FunctionType::ID:
        f = Function::Id;
        out.tau = {results, &Res::tau};
        break;
      case FunctionType::FD:
        f = Function::Fd;
        out.qdd = {results, &Res::qdd};
        break;
      case FunctionType::M:
        f = Function::M;
        out.m = {results, &Res::m};
        break;
      case FunctionType::Minv:
        f = Function::Minv;
        out.minv = {results, &Res::minv};
        break;
      case FunctionType::DeltaID:
        f = Function::DeltaId;
        out.tau = {results, &Res::tau};
        out.d_dq = {results, &Res::dtau_dq};
        out.d_dqd = {results, &Res::dtau_dqd};
        break;
      case FunctionType::DeltaFD:
        f = Function::DeltaFd;
        out.qdd = {results, &Res::qdd};
        out.minv = {results, &Res::minv};
        out.d_dq = {results, &Res::dqdd_dq};
        out.d_dqd = {results, &Res::dqdd_dqd};
        break;
      case FunctionType::DeltaiFD:
        // q̈ is the input copied through, as in referenceExecute.
        f = Function::DeltaiFd;
        out.qdd = {results, &Res::qdd};
        out.d_dq = {results, &Res::dqdd_dq};
        out.d_dqd = {results, &Res::dqdd_dqd};
        break;
    }
    // A gated batch reaches here only with one mask for every point.
    const algo::ColumnPlan *plan = nullptr;
    if (gatesColumns(fn) && count > 0 && !requests[0].seed_cols.empty()) {
        plan_.resolve(requests[0].seed_cols, robot_.nv());
        plan = &plan_;
    }
    engine_.evaluate(f, in, static_cast<int>(count), out, plan);
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
