#include "ctrl/ilqr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "perf/timing.h"

#include "model/quaternion.h"

namespace dadu::ctrl {

using linalg::Mat3;
using linalg::Vec3;
using model::Quaternion;
using runtime::DynamicsRequest;
using runtime::DynamicsResult;
using runtime::FunctionType;

namespace {

/**
 * Right Jacobian of SO(3) at rotation vector θ:
 *   Jr(θ) = I − (1−cosθ)/θ²·[θ]× + (θ−sinθ)/θ³·[θ]×²
 * with the Taylor guard for small angles. Maps a perturbation of the
 * rotation vector to the body-frame tangent of Exp(θ).
 */
Mat3
so3RightJacobian(const Vec3 &theta)
{
    const double t2 = theta.dot(theta);
    double c1, c2; // (1−cosθ)/θ², (θ−sinθ)/θ³
    if (t2 < 1e-12) {
        c1 = 0.5 - t2 / 24.0;
        c2 = 1.0 / 6.0 - t2 / 120.0;
    } else {
        const double t = std::sqrt(t2);
        c1 = (1.0 - std::cos(t)) / t2;
        c2 = (t - std::sin(t)) / (t2 * t);
    }
    const Mat3 k = linalg::skew(theta);
    const Mat3 k2 = k * k;
    Mat3 jr = Mat3::identity();
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            jr(i, j) += -c1 * k(i, j) + c2 * k2(i, j);
    return jr;
}

/** Rotation matrix of Exp(θ) (the integration increment). */
Mat3
so3Exp(const Vec3 &theta)
{
    return Quaternion::identity().integrated(theta).toRotation();
}

} // namespace

IlqrSolver::IlqrSolver(const RobotModel &robot, OcpProblem problem,
                       IlqrOptions options)
    : robot_(robot), prob_(std::move(problem)), opts_(options),
      nv_(robot.nv())
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

    // Backward-pass storage, sized once.
    A_.resize(nx, nx);
    B_.resize(nx, nv_);
    Vxx_.resize(nx, nx);
    Qxx_.resize(nx, nx);
    Qux_.resize(nv_, nx);
    Quu_.resize(nv_, nv_);
    VA_.resize(nx, nx);
    VB_.resize(nx, nv_);
    QuuK_.resize(nv_, nx);
    KQux_.resize(nx, nx);
    rhs_.resize(nv_, 1 + nx);
    Vx_.resize(nx);
    Qx_.resize(nx);
    Qu_.resize(nv_);
    tmpu_.resize(nv_);
    tmpx_.resize(nx);
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
    const int nx = 2 * n;
    const double h = prob_.dt;

    // Terminal value function.
    robot_.differenceInto(prob_.q_ref[N], q_[N], eq_);
    Vx_.resize(nx);
    for (int j = 0; j < n; ++j) {
        Vx_[j] = prob_.wq_term * eq_[j];
        Vx_[n + j] =
            prob_.wqd_term * (qd_[N][j] - prob_.qd_ref[N][j]);
    }
    Vxx_.resize(nx, nx);
    for (int j = 0; j < n; ++j) {
        Vxx_(j, j) = prob_.wq_term;
        Vxx_(n + j, n + j) = prob_.wqd_term;
    }

    d1_ = 0.0;
    d2_ = 0.0;
    grad_norm_ = 0.0;

    const bool gate = opts_.gating;

    for (int k = N - 1; k >= 0; --k) {
        // Under gating the caches hold the merged Jacobians (live
        // columns fresh, dead columns from their last computation);
        // M⁻¹ is a dense ∆FD byproduct either way, always fresh.
        const MatrixX &fq =
            gate ? fq_cache_[k] : lin_res_[k].dqdd_dq;
        const MatrixX &fqd =
            gate ? fqd_cache_[k] : lin_res_[k].dqdd_dqd;
        const MatrixX &minv = gate ? minv_cache_[k] : lin_res_[k].minv;
        assert(static_cast<int>(fq.rows()) == n &&
               static_cast<int>(minv.rows()) == n);

        // Tangent-space linearization of the explicit-Euler step:
        //   A = [ I     h·I        ]   B = [ 0      ]
        //       [ h·fq  I + h·fqd ]       [ h·M⁻¹ ]
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                A_(i, j) = i == j ? 1.0 : 0.0;
                A_(i, n + j) = i == j ? h : 0.0;
                A_(n + i, j) = h * fq(i, j);
                A_(n + i, n + j) =
                    (i == j ? 1.0 : 0.0) + h * fqd(i, j);
                B_(i, j) = 0.0;
                B_(n + i, j) = h * minv(i, j);
            }
        }

        // Exact discrete Jacobian on the manifold: for quaternion
        // joints, ∂(q ⊕ h·q̇)/∂(δq, δq̇) is NOT the Euclidean
        // (I, h·I) — the configuration step is a group composition.
        // With right perturbations q' = q ∘ Exp(δφ) and the body-
        // frame log as the difference, the exact blocks are
        //   ∂δφ⁺/∂δφ = E_hᵀ           (E_h = Exp(h·ω)),
        //   ∂δφ⁺/∂δω = h·Jr(h·ω)      (right Jacobian),
        // and for a floating base additionally (p integrated via the
        // body frame, δp measured there):
        //   ∂δp⁺/∂δφ = −h·E_hᵀ·[v_lin]×,  ∂δp⁺/∂δp = E_hᵀ,
        //   ∂δp⁺/∂δv = h·E_hᵀ.
        for (int b = 0; b < robot_.nb(); ++b) {
            const auto &link = robot_.link(b);
            if (link.joint != model::JointType::Spherical &&
                link.joint != model::JointType::Floating)
                continue;
            const int vi = link.vIndex;
            const VectorX &v = qd_[k];
            const Vec3 homega{h * v[vi], h * v[vi + 1],
                              h * v[vi + 2]};
            const Mat3 eht = so3Exp(homega).transpose();
            const Mat3 hjr = so3RightJacobian(homega) * h;
            for (int i = 0; i < 3; ++i) {
                for (int j = 0; j < 3; ++j) {
                    A_(vi + i, vi + j) = eht(i, j);
                    A_(vi + i, n + vi + j) = hjr(i, j);
                }
            }
            if (link.joint == model::JointType::Floating) {
                const Vec3 vlin{v[vi + 3], v[vi + 4], v[vi + 5]};
                const Mat3 dp_dphi =
                    eht * linalg::skew(vlin) * (-h);
                for (int i = 0; i < 3; ++i) {
                    for (int j = 0; j < 3; ++j) {
                        A_(vi + 3 + i, vi + j) = dp_dphi(i, j);
                        A_(vi + 3 + i, vi + 3 + j) = eht(i, j);
                        A_(vi + 3 + i, n + vi + 3 + j) =
                            h * eht(i, j);
                    }
                }
            }
        }

        // Q-function gradients: Qx = lx + Aᵀ Vx', Qu = lu + Bᵀ Vx'.
        robot_.differenceInto(prob_.q_ref[k], q_[k], eq_);
        A_.transposeMultiplyInto(Vx_, Qx_);
        for (int j = 0; j < n; ++j) {
            Qx_[j] += prob_.wq * eq_[j];
            Qx_[n + j] +=
                prob_.wqd * (qd_[k][j] - prob_.qd_ref[k][j]);
        }
        B_.transposeMultiplyInto(Vx_, Qu_);
        const VectorX *ur = uRef(k);
        for (int j = 0; j < n; ++j)
            Qu_[j] += prob_.wu * (u_[k][j] - (ur ? (*ur)[j] : 0.0));
        grad_norm_ = std::max(grad_norm_, Qu_.maxAbs());

        // Q-function Hessians.
        Vxx_.multiplyInto(A_, VA_);
        A_.transposeMultiplyInto(VA_, Qxx_);
        for (int j = 0; j < n; ++j) {
            Qxx_(j, j) += prob_.wq;
            Qxx_(n + j, n + j) += prob_.wqd;
        }
        B_.transposeMultiplyInto(VA_, Qux_);
        Vxx_.multiplyInto(B_, VB_);
        B_.transposeMultiplyInto(VB_, Quu_);
        for (int j = 0; j < n; ++j)
            Quu_(j, j) += prob_.wu + reg_;

        // Gains: Quu · [kff | K] = -[Qu | Qux], one multi-RHS solve
        // into the constructor-sized rhs_ (every entry overwritten).
        for (int i = 0; i < n; ++i) {
            rhs_(i, 0) = -Qu_[i];
            for (int j = 0; j < nx; ++j)
                rhs_(i, 1 + j) = -Qux_(i, j);
        }
        if (n <= linalg::SmallLdlt::kMaxDim) {
            if (!quu_small_.compute(&Quu_(0, 0), n))
                return false;
            for (int i = 0; i < n; ++i) {
                if (quu_small_.pivot(i) <= 0.0)
                    return false; // not PD: raise regularization
            }
            double col[linalg::SmallLdlt::kMaxDim];
            for (int c = 0; c < 1 + nx; ++c) {
                for (int i = 0; i < n; ++i)
                    col[i] = rhs_(i, c);
                quu_small_.solveInPlace(col);
                for (int i = 0; i < n; ++i)
                    rhs_(i, c) = col[i];
            }
        } else {
            if (!quu_ldlt_.compute(Quu_))
                return false;
            for (int i = 0; i < n; ++i) {
                if (quu_ldlt_.vectorD()[i] <= 0.0)
                    return false; // not PD: raise regularization
            }
            quu_ldlt_.solveInPlace(rhs_);
        }
        VectorX &kff = kff_[k];
        MatrixX &K = K_[k];
        for (int i = 0; i < n; ++i) {
            kff[i] = rhs_(i, 0);
            for (int j = 0; j < nx; ++j)
                K(i, j) = rhs_(i, 1 + j);
        }

        // Expected decrease: ΔJ(α) ≈ α·d1 + ½α²·d2 with
        // d1 = Σ kffᵀQu < 0 and d2 = Σ kffᵀQuu·kff > 0 when PD.
        Quu_.multiplyInto(kff, tmpu_);
        const double k_quu_k = kff.dot(tmpu_);
        if (k_quu_k < 0.0)
            return false; // Quu indefinite despite factorization
        d1_ += kff.dot(Qu_);
        d2_ += k_quu_k;

        // Value recursion:
        //   Vx  = Qx + Kᵀ(Quu·kff + Qu) + Quxᵀ·kff
        //   Vxx = Qxx + Kᵀ·Quu·K + Kᵀ·Qux + Quxᵀ·K (symmetrized)
        for (int i = 0; i < n; ++i)
            tmpu_[i] += Qu_[i];
        K.transposeMultiplyInto(tmpu_, tmpx_);
        Vx_ = Qx_;
        for (int j = 0; j < nx; ++j)
            Vx_[j] += tmpx_[j];
        Qux_.transposeMultiplyInto(kff, tmpx_);
        for (int j = 0; j < nx; ++j)
            Vx_[j] += tmpx_[j];

        Quu_.multiplyInto(K, QuuK_);
        K.transposeMultiplyInto(QuuK_, Vxx_);
        K.transposeMultiplyInto(Qux_, KQux_);
        for (int i = 0; i < nx; ++i)
            for (int j = 0; j < nx; ++j)
                Vxx_(i, j) += Qxx_(i, j) + KQux_(i, j) + KQux_(j, i);
        for (int i = 0; i < nx; ++i) {
            for (int j = i + 1; j < nx; ++j) {
                const double s = 0.5 * (Vxx_(i, j) + Vxx_(j, i));
                Vxx_(i, j) = s;
                Vxx_(j, i) = s;
            }
        }
    }
    return true;
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
