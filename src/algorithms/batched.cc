#include "algorithms/batched.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "algorithms/crba.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/soa/kernels.h"

namespace dadu::algo {

namespace {

/**
 * Oversubscribing a CPU-bound batch never helps: clamp the requested
 * parallelism to the hardware thread count (min 1).
 */
int
clampThreads(int threads)
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 0 && threads > hw)
        threads = hw;
    return threads < 1 ? 1 : threads;
}

/** The active lane-kernel build's pack kernel for @p fn. */
soa::PackKernel
packKernel(BatchedDynamics::Function fn)
{
    using F = BatchedDynamics::Function;
    const soa::KernelSet &k = soa::activeKernels();
    switch (fn) {
      case F::Id: return k.rnea;
      case F::Fd: return k.forwardDynamics;
      case F::M: return k.crba;
      case F::Minv: return k.minv;
      case F::DeltaId: return k.rneaDerivatives;
      case F::DeltaFd: return k.fdDerivatives;
      case F::DeltaiFd: return k.fdGivenAccel;
    }
    return nullptr;
}

/** The narrowest supported lane width that holds @p r points (r ≤ 16). */
int
packWidthFor(int r)
{
    int pw = 4;
    while (pw < r)
        pw *= 2;
    assert(soa::laneWidthSupported(pw));
    return pw;
}

/** Copy @p v into slot @p i of @p out, when the caller wants it. */
template <typename T>
void
deliver(const Strided<T> &out, int i, const T &v)
{
    if (out)
        out[i] = v;
}

} // namespace

BatchedDynamics::BatchedDynamics(const RobotModel &robot, int threads)
    : BatchedDynamics(
          robot, std::make_shared<app::ThreadPool>(clampThreads(threads) - 1))
{}

BatchedDynamics::BatchedDynamics(const RobotModel &robot,
                                 std::shared_ptr<app::ThreadPool> pool)
    : robot_(robot), pool_(std::move(pool)),
      lane_width_(soa::defaultLaneWidth())
{
    // One workspace per chunk: pool workers plus the calling thread,
    // which participates in runIndexed().
    workspaces_.resize(static_cast<std::size_t>(pool_->threadCount()) + 1);
    for (auto &ws : workspaces_)
        ws.ensure(robot_);
    fd_scratch_.resize(workspaces_.size());
}

void
BatchedDynamics::setLaneWidth(int w)
{
    if (w == 1 || soa::laneWidthSupported(w))
        lane_width_ = w;
}

void
BatchedDynamics::runChunk(void *ctx, int chunk)
{
    auto *self = static_cast<BatchedDynamics *>(ctx);
    const int chunks = self->workspaceCount();
    const int n = self->n_;
    const int begin = static_cast<int>(
        static_cast<long long>(chunk) * n / chunks);
    const int end = static_cast<int>(
        static_cast<long long>(chunk + 1) * n / chunks);
    DynamicsWorkspace &ws = self->workspaces_[chunk];
    const Inputs &in = self->in_;
    const Outputs &out = self->out_;

    // Pack full lane groups through the SoA kernels, then the ragged
    // remainder of r ≥ 2 points as one masked pack at the narrowest
    // supported width that holds it; a single point runs through the
    // scalar path. All three mirror the same reference arithmetic, so
    // where the split falls never changes a point's bits.
    const int w = self->lane_width_;
    int i = begin;
    if (w > 1) {
        const soa::PackKernel pack = packKernel(self->fn_);
        // Lanes past r keep the previous pack's pointers: the kernels
        // neither read nor write a lane outside the mask.
        soa::LaneBatch lanes;
        soa::LaneResults res;
        while (end - i >= 2) {
            const int r = std::min(w, end - i);
            lanes.mask = soa::LaneBatch::fullMask(r);
            for (int l = 0; l < r; ++l) {
                const int p = i + l;
                lanes.q[l] = &in.q[p];
                lanes.qd[l] = in.qd ? &in.qd[p] : nullptr;
                lanes.u[l] = in.u ? &in.u[p] : nullptr;
                lanes.minv[l] = in.minv ? &in.minv[p] : nullptr;
                res.tau[l] = out.tau ? &out.tau[p] : nullptr;
                res.qdd[l] = out.qdd ? &out.qdd[p] : nullptr;
                res.m[l] = out.m ? &out.m[p] : nullptr;
                res.minv[l] = out.minv ? &out.minv[p] : nullptr;
                res.d_dq[l] = out.d_dq ? &out.d_dq[p] : nullptr;
                res.d_dqd[l] = out.d_dqd ? &out.d_dqd[p] : nullptr;
            }
            pack(self->robot_, ws, packWidthFor(r), lanes, res, self->plan_);
            i += r;
        }
        if (i > begin)
            self->packed_points_.fetch_add(
                static_cast<std::uint64_t>(i - begin),
                std::memory_order_relaxed);
    }
    for (; i < end; ++i)
        self->scalarPoint(ws, self->fd_scratch_[chunk], i);
}

void
BatchedDynamics::scalarPoint(DynamicsWorkspace &ws, FdDerivatives &fd,
                             int i) const
{
    const Inputs &in = in_;
    const Outputs &out = out_;
    switch (fn_) {
      case Function::Id:
        rnea(robot_, ws, in.q[i], in.qd[i], in.u[i], ws.rnea_res);
        deliver(out.tau, i, ws.rnea_res.tau);
        break;
      case Function::Fd:
        if (out.qdd)
            forwardDynamics(robot_, ws, in.q[i], in.qd[i], in.u[i],
                            out.qdd[i]);
        break;
      case Function::M:
        if (out.m)
            crba(robot_, ws, in.q[i], out.m[i]);
        break;
      case Function::Minv:
        if (out.minv)
            massMatrixInverse(robot_, ws, in.q[i], out.minv[i]);
        break;
      case Function::DeltaId:
        rnea(robot_, ws, in.q[i], in.qd[i], in.u[i], ws.rnea_res);
        rneaDerivatives(robot_, ws, in.q[i], in.qd[i], in.u[i], ws.did,
                        nullptr, false, plan_);
        deliver(out.tau, i, ws.rnea_res.tau);
        deliver(out.d_dq, i, ws.did.dtau_dq);
        deliver(out.d_dqd, i, ws.did.dtau_dqd);
        break;
      case Function::DeltaFd:
      case Function::DeltaiFd:
        if (fn_ == Function::DeltaFd)
            fdDerivatives(robot_, ws, in.q[i], in.qd[i], in.u[i], fd,
                          nullptr, plan_);
        else
            fdDerivativesGivenAccel(robot_, ws, in.q[i], in.qd[i], in.u[i],
                                    in.minv[i], fd, nullptr, plan_);
        deliver(out.qdd, i, fd.qdd);
        deliver(out.minv, i, fd.minv);
        deliver(out.d_dq, i, fd.dqdd_dq);
        deliver(out.d_dqd, i, fd.dqdd_dqd);
        break;
    }
}

void
BatchedDynamics::evaluate(Function fn, const Inputs &in, int n,
                          const Outputs &out, const ColumnPlan *plan)
{
    assert(!in_dispatch_.exchange(true) &&
           "BatchedDynamics: concurrent batch calls on one engine");
    fn_ = fn;
    n_ = n;
    in_ = in;
    out_ = out;
    plan_ = plan;
    pool_->runIndexed(&BatchedDynamics::runChunk, this, workspaceCount());
    in_ = Inputs{};
    out_ = Outputs{};
    plan_ = nullptr;
    in_dispatch_.store(false);
}

BatchedDynamics::Outputs
BatchedDynamics::fdOutputs()
{
    FdDerivatives *fd = fd_out_.data();
    Outputs out;
    out.qdd = {fd, &FdDerivatives::qdd};
    out.minv = {fd, &FdDerivatives::minv};
    out.d_dq = {fd, &FdDerivatives::dqdd_dq};
    out.d_dqd = {fd, &FdDerivatives::dqdd_dqd};
    return out;
}

const std::vector<VectorX> &
BatchedDynamics::batchForwardDynamics(const std::vector<VectorX> &q,
                                      const std::vector<VectorX> &qd,
                                      const std::vector<VectorX> &tau)
{
    assert(q.size() == qd.size() && q.size() == tau.size());
    return batchForwardDynamics(q.data(), qd.data(), tau.data(),
                                static_cast<int>(q.size()));
}

const std::vector<VectorX> &
BatchedDynamics::batchForwardDynamics(const VectorX *q, const VectorX *qd,
                                      const VectorX *tau, int n)
{
    if (static_cast<int>(qdd_out_.size()) < n)
        qdd_out_.resize(n);
    Outputs out;
    out.qdd = qdd_out_.data();
    evaluate(Function::Fd, {q, qd, tau, {}}, n, out);
    return qdd_out_;
}

const std::vector<FdDerivatives> &
BatchedDynamics::batchFdDerivatives(const std::vector<VectorX> &q,
                                    const std::vector<VectorX> &qd,
                                    const std::vector<VectorX> &tau,
                                    const ColumnPlan *plan)
{
    assert(q.size() == qd.size() && q.size() == tau.size());
    return batchFdDerivatives(q.data(), qd.data(), tau.data(),
                              static_cast<int>(q.size()), plan);
}

const std::vector<FdDerivatives> &
BatchedDynamics::batchFdDerivatives(const VectorX *q, const VectorX *qd,
                                    const VectorX *tau, int n,
                                    const ColumnPlan *plan)
{
    if (static_cast<int>(fd_out_.size()) < n)
        fd_out_.resize(n);
    evaluate(Function::DeltaFd, {q, qd, tau, {}}, n, fdOutputs(), plan);
    return fd_out_;
}

const std::vector<FdDerivatives> &
BatchedDynamics::batchFdDerivativesGivenAccel(
    const VectorX *q, const VectorX *qd, const VectorX *qdd,
    Strided<const linalg::MatrixX> minv, int n, const ColumnPlan *plan)
{
    if (static_cast<int>(fd_out_.size()) < n)
        fd_out_.resize(n);
    evaluate(Function::DeltaiFd, {q, qd, qdd, minv}, n, fdOutputs(), plan);
    return fd_out_;
}

const std::vector<linalg::MatrixX> &
BatchedDynamics::batchMinv(const std::vector<VectorX> &q)
{
    return batchMinv(q.data(), static_cast<int>(q.size()));
}

const std::vector<linalg::MatrixX> &
BatchedDynamics::batchMinv(const VectorX *q, int n)
{
    if (static_cast<int>(minv_out_.size()) < n)
        minv_out_.resize(n);
    Outputs out;
    out.minv = minv_out_.data();
    evaluate(Function::Minv, {q, {}, {}, {}}, n, out);
    return minv_out_;
}

} // namespace dadu::algo
