#include "ctrl/ilqr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "perf/timing.h"

namespace dadu::ctrl {

using runtime::DynamicsRequest;
using runtime::DynamicsResult;
using runtime::FunctionType;

IlqrSolver::IlqrSolver(const RobotModel &robot, OcpProblem problem,
                       IlqrOptions options)
    : robot_(robot), prob_(std::move(problem)), opts_(options),
      nv_(robot.nv()), riccati_(robot, prob_.dt)
{
    const int N = prob_.knots;
    const int nq = robot_.nq();
    const int nx = 2 * nv_;
    assert(N >= 1);

    // Default references: hold the neutral configuration at rest.
    if (prob_.q_ref.empty())
        prob_.q_ref.assign(N + 1, robot_.neutralConfiguration());
    if (prob_.qd_ref.empty())
        prob_.qd_ref.assign(N + 1, VectorX(nv_));
    assert(static_cast<int>(prob_.q_ref.size()) == N + 1);
    assert(static_cast<int>(prob_.qd_ref.size()) == N + 1);
    assert(prob_.u_ref.empty() ||
           static_cast<int>(prob_.u_ref.size()) == N);

    q_.assign(N + 1, VectorX(nq));
    qd_.assign(N + 1, VectorX(nv_));
    u_.assign(N, VectorX(nv_));
    q_new_ = q_;
    qd_new_ = qd_;
    u_new_ = u_;

    lin_req_.resize(N);
    lin_res_.resize(N);

    kff_.assign(N, VectorX(nv_));
    K_.assign(N, MatrixX(nv_, nx));
    reg_ = opts_.reg_init;
    costs_.reserve(opts_.max_iterations + 2);

    lx_.resize(nx);
    lu_.resize(nv_);
    step_.resize(nv_);
    dq_.resize(nv_);
    dqd_.resize(nv_);
    eq_.resize(nv_);

    if (opts_.gating) {
        fq_cache_.assign(N, MatrixX(nv_, nv_));
        fqd_cache_.assign(N, MatrixX(nv_, nv_));
        minv_cache_.assign(N, MatrixX(nv_, nv_));
        qdd_cache_.assign(N, VectorX(nv_));
        q_lin_.assign(N, VectorX(nq));
        qd_lin_.assign(N, VectorX(nv_));
        drift_.resize(nv_);
        seed_.reserve(nv_);
    }
}

void
IlqrSolver::reset(const VectorX &q0, const VectorX &qd0)
{
    setInitialState(q0, qd0);
    // Reference controls (gravity compensation in the standard
    // scenarios) are the natural cold-start; zero otherwise.
    for (int k = 0; k < prob_.knots; ++k) {
        if (const VectorX *ur = uRef(k))
            u_[k] = *ur;
        else
            u_[k].setAll(0.0);
    }
    // Cold start: the Jacobian caches describe a discarded
    // trajectory; the next linearization must be dense.
    cache_valid_ = false;
    lin_count_ = 0;
    gating_stats_ = GatingStats{};
}

void
IlqrSolver::setInitialState(const VectorX &q0, const VectorX &qd0)
{
    assert(static_cast<int>(q0.size()) == robot_.nq());
    assert(static_cast<int>(qd0.size()) == nv_);
    q_[0] = q0;
    qd_[0] = qd0;
    // A new anchor state is a new problem: a stall at the previous
    // state does not carry over (receding-horizon re-entry).
    stalled_ = false;
    lin_valid_ = false;
}

void
IlqrSolver::shiftControls()
{
    const int N = prob_.knots;
    for (int k = 0; k + 1 < N; ++k)
        u_[k] = u_[k + 1];
    // The horizon's new tail repeats the last control.
    lin_valid_ = false;
}

void
IlqrSolver::shiftReferences()
{
    const int N = prob_.knots;
    if (prob_.periodic_ref) {
        // The pattern's period divides N and q_ref/qd_ref carry N+1
        // entries with first == last: rotate the N-entry period and
        // re-derive the terminal sample from the new front, so the
        // state references stay knot-aligned with the N-entry u_ref
        // (rotating all N+1 entries would advance the two streams at
        // different rates and desynchronize them over time).
        std::rotate(prob_.q_ref.begin(), prob_.q_ref.begin() + 1,
                    prob_.q_ref.begin() + N);
        std::rotate(prob_.qd_ref.begin(), prob_.qd_ref.begin() + 1,
                    prob_.qd_ref.begin() + N);
        prob_.q_ref[N] = prob_.q_ref[0];
        prob_.qd_ref[N] = prob_.qd_ref[0];
        if (!prob_.u_ref.empty())
            std::rotate(prob_.u_ref.begin(), prob_.u_ref.begin() + 1,
                        prob_.u_ref.end());
        return;
    }
    for (int k = 0; k < N; ++k) {
        prob_.q_ref[k] = prob_.q_ref[k + 1];
        prob_.qd_ref[k] = prob_.qd_ref[k + 1];
    }
    for (int k = 0; k + 1 < static_cast<int>(prob_.u_ref.size()); ++k)
        prob_.u_ref[k] = prob_.u_ref[k + 1];
}

const VectorX *
IlqrSolver::uRef(int k) const
{
    return prob_.u_ref.empty() ? nullptr : &prob_.u_ref[k];
}

double
IlqrSolver::stageCost(int k, const VectorX &q, const VectorX &qd,
                      const VectorX &u)
{
    robot_.differenceInto(prob_.q_ref[k], q, eq_);
    double c = 0.5 * prob_.wq * eq_.dot(eq_);
    const VectorX &qdr = prob_.qd_ref[k];
    for (int j = 0; j < nv_; ++j) {
        const double e = qd[j] - qdr[j];
        c += 0.5 * prob_.wqd * e * e;
    }
    const VectorX *ur = uRef(k);
    for (int j = 0; j < nv_; ++j) {
        const double e = u[j] - (ur ? (*ur)[j] : 0.0);
        c += 0.5 * prob_.wu * e * e;
    }
    return c;
}

double
IlqrSolver::terminalCost(const VectorX &q, const VectorX &qd)
{
    const int N = prob_.knots;
    robot_.differenceInto(prob_.q_ref[N], q, eq_);
    double c = 0.5 * prob_.wq_term * eq_.dot(eq_);
    const VectorX &qdr = prob_.qd_ref[N];
    for (int j = 0; j < nv_; ++j) {
        const double e = qd[j] - qdr[j];
        c += 0.5 * prob_.wqd_term * e * e;
    }
    return c;
}

double
IlqrSolver::rolloutNominal(DynamicsChannel &channel)
{
    const int N = prob_.knots;
    const double h = prob_.dt;
    double cost = 0.0;
    for (int k = 0; k < N; ++k) {
        ro_req_.q = q_[k];
        ro_req_.qd = qd_[k];
        ro_req_.qdd_or_tau = u_[k];
        channel.run(FunctionType::FD, &ro_req_, 1, &ro_res_);
        cost += stageCost(k, q_[k], qd_[k], u_[k]);
        for (int j = 0; j < nv_; ++j)
            step_[j] = h * qd_[k][j];
        robot_.integrateInto(q_[k], step_, q_[k + 1]);
        qd_[k + 1] = qd_[k];
        for (int j = 0; j < nv_; ++j)
            qd_[k + 1][j] += h * ro_res_.qdd[j];
    }
    cost += terminalCost(q_[N], qd_[N]);
    cost_ = cost;
    return cost;
}

void
IlqrSolver::linearize(DynamicsChannel &channel)
{
    const int N = prob_.knots;
    const bool gate = opts_.gating;
    // A gated sweep needs valid caches to fill the dead columns from;
    // the periodic dense refresh bounds how stale any column can get.
    bool dense = !gate || !cache_valid_ ||
                 (opts_.dense_refresh_every > 0 &&
                  lin_count_ % opts_.dense_refresh_every == 0);
    ++lin_count_;
    if (!dense) {
        // Accumulate each coordinate's tangent movement since the
        // previous linearize call; a column goes live once its total
        // drift since it was last computed reaches the tolerance
        // (>=, so tol = 0 keeps every column live: bitwise-dense).
        for (int k = 0; k < N; ++k) {
            robot_.differenceInto(q_lin_[k], q_[k], dq_);
            for (int j = 0; j < nv_; ++j) {
                const double d = std::fabs(dq_[j]) +
                                 std::fabs(qd_[k][j] - qd_lin_[k][j]);
                if (k == 0 || d > dqd_[j])
                    dqd_[j] = d; // dqd_ doubles as max-drift scratch
            }
        }
        seed_.clear();
        for (int j = 0; j < nv_; ++j) {
            drift_[j] += dqd_[j];
            if (drift_[j] >= opts_.gating_tol)
                seed_.push_back(j);
        }
        if (static_cast<int>(seed_.size()) == nv_)
            dense = true; // everything moved: no point masking
        else if (seed_.empty()) {
            // Nothing drifted past tolerance: the caches already
            // describe this trajectory to within tol — skip the
            // batch entirely.
            for (int k = 0; k < N; ++k) {
                q_lin_[k] = q_[k];
                qd_lin_[k] = qd_[k];
            }
            ++gating_stats_.skipped;
            lin_valid_ = true;
            return;
        }
    }
    if (gate) {
        if (dense)
            ++gating_stats_.dense;
        else {
            ++gating_stats_.gated;
            gating_stats_.live_columns +=
                static_cast<long long>(seed_.size());
        }
    }
    // Dense refreshes run ∆FD (and bank q̈/M⁻¹ below); gated
    // refreshes submit ∆iFD with the banked q̈/M⁻¹ as inputs, so
    // the backend skips the dense steps ①②③ and the live columns
    // alone set the cost.
    const FunctionType fn =
        gate && !dense ? FunctionType::DeltaiFD : FunctionType::DeltaFD;
    for (int k = 0; k < N; ++k) {
        lin_req_[k].q = q_[k];
        lin_req_[k].qd = qd_[k];
        if (fn == FunctionType::DeltaiFD) {
            lin_req_[k].qdd_or_tau = qdd_cache_[k];
            lin_req_[k].minv = minv_cache_[k];
        } else {
            lin_req_[k].qdd_or_tau = u_[k];
        }
        if (gate) {
            // ONE shared seed across the horizon keeps the batch
            // mask-uniform (SoA fast path, coalescer-mergeable).
            if (dense)
                lin_req_[k].seed_cols.clear();
            else
                lin_req_[k].seed_cols = seed_;
        }
    }
    channel.run(fn, lin_req_.data(), static_cast<std::size_t>(N),
                lin_res_.data());
    if (gate) {
        // Merge into the caches the backward pass reads, and reset
        // the drift of every column that was just recomputed.
        if (dense) {
            // Swap (not copy) the fresh linearization into the
            // caches: lin_res_ is overwritten by the next batch
            // anyway, and the swapped-in old storage keeps its
            // capacity, so the dense refresh stays allocation-free
            // with no nv x nv copies.
            for (int k = 0; k < N; ++k) {
                std::swap(fq_cache_[k], lin_res_[k].dqdd_dq);
                std::swap(fqd_cache_[k], lin_res_[k].dqdd_dqd);
                std::swap(minv_cache_[k], lin_res_[k].minv);
                std::swap(qdd_cache_[k], lin_res_[k].qdd);
            }
            drift_.setAll(0.0);
            cache_valid_ = true;
        } else {
            for (int k = 0; k < N; ++k) {
                const MatrixX &fq = lin_res_[k].dqdd_dq;
                const MatrixX &fqd = lin_res_[k].dqdd_dqd;
                for (int c : seed_) {
                    for (int r = 0; r < nv_; ++r) {
                        fq_cache_[k](r, c) = fq(r, c);
                        fqd_cache_[k](r, c) = fqd(r, c);
                    }
                }
            }
            for (int c : seed_)
                drift_[c] = 0.0;
        }
        for (int k = 0; k < N; ++k) {
            q_lin_[k] = q_[k];
            qd_lin_[k] = qd_[k];
        }
    }
    lin_valid_ = true;
}

bool
IlqrSolver::backwardPass()
{
    const int N = prob_.knots;
    const int n = nv_;

    // Terminal value function.
    robot_.differenceInto(prob_.q_ref[N], q_[N], eq_);
    VectorX &Vx = riccati_.vx();
    MatrixX &Vxx = riccati_.vxx();
    for (int j = 0; j < n; ++j) {
        Vx[j] = prob_.wq_term * eq_[j];
        Vx[n + j] = prob_.wqd_term * (qd_[N][j] - prob_.qd_ref[N][j]);
    }
    Vxx.setZero();
    for (int j = 0; j < n; ++j) {
        Vxx(j, j) = prob_.wq_term;
        Vxx(n + j, n + j) = prob_.wqd_term;
    }

    d1_ = 0.0;
    d2_ = 0.0;
    grad_norm_ = 0.0;

    const bool gate = opts_.gating;
    if (trace_)
        trace_->record(runtime::obs::EventKind::RiccatiBegin,
                       perf::nowUs(), -1, -1, FunctionType::DeltaFD, 0,
                       reg_);
    bool ok = true;
    for (int k = N - 1; k >= 0 && ok; --k) {
        // Cost expansion at knot k.
        robot_.differenceInto(prob_.q_ref[k], q_[k], eq_);
        for (int j = 0; j < n; ++j) {
            lx_[j] = prob_.wq * eq_[j];
            lx_[n + j] = prob_.wqd * (qd_[k][j] - prob_.qd_ref[k][j]);
        }
        const VectorX *ur = uRef(k);
        for (int j = 0; j < n; ++j)
            lu_[j] = prob_.wu * (u_[k][j] - (ur ? (*ur)[j] : 0.0));

        // Under gating the caches hold the merged Jacobians (live
        // columns fresh, dead columns from their last computation);
        // M⁻¹ is a dense ∆FD byproduct either way, always fresh.
        const RiccatiKnot knot{
            gate ? fq_cache_[k] : lin_res_[k].dqdd_dq,
            gate ? fqd_cache_[k] : lin_res_[k].dqdd_dqd,
            gate ? minv_cache_[k] : lin_res_[k].minv,
            qd_[k],
            lx_,
            lu_,
            prob_.wq,
            prob_.wqd,
            prob_.wu + reg_};
        RiccatiTerms terms;
        ok = riccati_.step(knot, kff_[k], K_[k], terms);
        grad_norm_ = std::max(grad_norm_, terms.qu_max);
        if (ok) {
            d1_ += terms.kff_qu;
            d2_ += terms.kff_quu_kff;
        }
    }
    if (trace_)
        trace_->record(runtime::obs::EventKind::RiccatiEnd, perf::nowUs(),
                       -1, -1, FunctionType::DeltaFD, ok ? 1u : 0u,
                       grad_norm_);
    return ok;
}

double
IlqrSolver::forwardPass(DynamicsChannel &channel, double alpha)
{
    const int N = prob_.knots;
    const int n = nv_;
    const double h = prob_.dt;
    q_new_[0] = q_[0];
    qd_new_[0] = qd_[0];
    double cost = 0.0;
    for (int k = 0; k < N; ++k) {
        // Feedback around the nominal: δx in the tangent space.
        robot_.differenceInto(q_[k], q_new_[k], dq_);
        for (int j = 0; j < n; ++j)
            dqd_[j] = qd_new_[k][j] - qd_[k][j];
        VectorX &u = u_new_[k];
        u = u_[k];
        const MatrixX &K = K_[k];
        const VectorX &kff = kff_[k];
        for (int i = 0; i < n; ++i) {
            double du = alpha * kff[i];
            for (int j = 0; j < n; ++j)
                du += K(i, j) * dq_[j] + K(i, n + j) * dqd_[j];
            u[i] += du;
        }

        ro_req_.q = q_new_[k];
        ro_req_.qd = qd_new_[k];
        ro_req_.qdd_or_tau = u;
        channel.run(FunctionType::FD, &ro_req_, 1, &ro_res_);

        cost += stageCost(k, q_new_[k], qd_new_[k], u);
        for (int j = 0; j < n; ++j)
            step_[j] = h * qd_new_[k][j];
        robot_.integrateInto(q_new_[k], step_, q_new_[k + 1]);
        qd_new_[k + 1] = qd_new_[k];
        for (int j = 0; j < n; ++j)
            qd_new_[k + 1][j] += h * ro_res_.qdd[j];
    }
    cost += terminalCost(q_new_[N], qd_new_[N]);
    return cost;
}

void
IlqrSolver::acceptCandidate()
{
    q_.swap(q_new_);
    qd_.swap(qd_new_);
    u_.swap(u_new_);
    lin_valid_ = false;
}

bool
IlqrSolver::iterate(DynamicsChannel &channel)
{
    if (!trace_)
        return iterateInner(channel);
    // Span the whole iteration; IterEnd packs accepted|mode<<1 with
    // mode the linearize path this iteration took (0 dense, 1 gated,
    // 2 skipped, 3 reused a still-valid linearization) and carries
    // the live-column count a gated refresh submitted.
    const GatingStats before = gating_stats_;
    trace_->record(runtime::obs::EventKind::IterBegin, perf::nowUs(), -1,
                   -1, runtime::FunctionType::DeltaFD, 0, cost_);
    const bool accepted = iterateInner(channel);
    std::uint32_t mode = 3;
    if (gating_stats_.dense > before.dense)
        mode = 0;
    else if (gating_stats_.gated > before.gated)
        mode = 1;
    else if (gating_stats_.skipped > before.skipped)
        mode = 2;
    trace_->record(runtime::obs::EventKind::IterEnd, perf::nowUs(), -1,
                   -1, runtime::FunctionType::DeltaFD,
                   (accepted ? 1u : 0u) | (mode << 1),
                   static_cast<double>(gating_stats_.live_columns -
                                       before.live_columns));
    return accepted;
}

bool
IlqrSolver::iterateInner(DynamicsChannel &channel)
{
    if (stalled_)
        return false;
    if (!lin_valid_)
        linearize(channel);
    while (!backwardPass()) {
        reg_ = std::max(reg_ * 10.0, 10.0 * opts_.reg_init);
        if (reg_ > opts_.reg_max) {
            stalled_ = true;
            return false;
        }
    }

    double alpha = 1.0;
    for (int t = 0; t < opts_.max_line_search; ++t, alpha *= 0.5) {
        const double cost = forwardPass(channel, alpha);
        const double expected =
            -(alpha * d1_ + 0.5 * alpha * alpha * d2_);
        if (std::isfinite(cost) &&
            cost_ - cost >= opts_.armijo * std::max(expected, 0.0) &&
            cost <= cost_) {
            acceptCandidate();
            cost_ = cost;
            reg_ = std::max(opts_.reg_min, 0.5 * reg_);
            return true;
        }
    }

    // No step accepted: steepen the regularization (more conservative
    // gains next iteration); stall once it saturates.
    reg_ *= 10.0;
    if (reg_ > opts_.reg_max)
        stalled_ = true;
    return false;
}

IlqrSummary
IlqrSolver::solve(DynamicsChannel &channel, const VectorX &q0,
                  const VectorX &qd0)
{
    setInitialState(q0, qd0);
    stalled_ = false;
    reg_ = opts_.reg_init;
    costs_.clear();
    rolloutNominal(channel);
    costs_.push_back(cost_);

    IlqrSummary summary;
    summary.initial_cost = cost_;
    for (int it = 0; it < opts_.max_iterations; ++it) {
        const double prev = cost_;
        const bool accepted = iterate(channel);
        summary.iterations = it + 1;
        if (accepted)
            costs_.push_back(cost_);
        // A stalled iterate may have aborted the backward sweep
        // mid-recursion, leaving grad_norm_ a partial max — check
        // stall first so a stalled solve never reports convergence.
        if (stalled_)
            break;
        if (grad_norm_ < opts_.tol_grad) {
            summary.converged = true;
            break;
        }
        if (accepted &&
            prev - cost_ < opts_.tol_cost * (1.0 + std::fabs(prev))) {
            summary.converged = true;
            break;
        }
    }
    summary.cost = cost_;
    summary.grad_norm = grad_norm_;
    return summary;
}

} // namespace dadu::ctrl
