#include "ctrl/riccati.h"

#include <cassert>
#include <cmath>

#include "linalg/gemm.h"
#include "model/quaternion.h"

namespace dadu::ctrl {

using linalg::Mat3;
using linalg::Vec3;
using linalg::gemmAccumulate;
using linalg::gemmTransAccumulate;
using model::JointType;
using model::Quaternion;

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

RiccatiSweep::RiccatiSweep(const model::RobotModel &robot, double h)
    : n_(robot.nv()), h_(h)
{
    const int n = n_;
    const int nx = 2 * n;

    // A's top half: [I | h·I] outside the patch blocks (rewritten per
    // knot), so column c has the single top entry at row c mod n ...
    a_.resize(nx, nx);
    top_lo_.resize(nx);
    top_hi_.resize(nx);
    for (int i = 0; i < n; ++i) {
        a_(i, i) = 1.0;
        a_(i, n + i) = h;
    }
    for (int c = 0; c < nx; ++c) {
        top_lo_[c] = c % n;
        top_hi_[c] = c % n + 1;
    }
    // ... except in a patch block, where it spans the joint's rows
    // that the patch writes (see assemble()).
    for (int b = 0; b < robot.nb(); ++b) {
        const model::Link &link = robot.link(b);
        if (link.joint != JointType::Spherical &&
            link.joint != JointType::Floating)
            continue;
        const Patch p{link.vIndex, link.joint == JointType::Floating};
        patches_.push_back(p);
        for (int j = 0; j < 3; ++j) {
            // ∂δφ⁺/∂δφ = E_hᵀ (and ∂δp⁺/∂δφ below it), ∂δφ⁺/∂δω = h·Jr.
            top_lo_[p.vi + j] = p.vi;
            top_hi_[p.vi + j] = p.vi + (p.floating ? 6 : 3);
            top_lo_[n + p.vi + j] = p.vi;
            top_hi_[n + p.vi + j] = p.vi + 3;
            if (p.floating) {
                // ∂δp⁺/∂δp = E_hᵀ, ∂δp⁺/∂δv = h·E_hᵀ.
                top_lo_[p.vi + 3 + j] = p.vi + 3;
                top_hi_[p.vi + 3 + j] = p.vi + 6;
                top_lo_[n + p.vi + 3 + j] = p.vi + 3;
                top_hi_[n + p.vi + 3 + j] = p.vi + 6;
            }
        }
    }

    for (int c = 0; c < nx; ++c)
        if (top_hi_[c] - top_lo_[c] > 1)
            patch_cols_.push_back(c);

    bb_.resize(n, n);
    vx_.resize(nx);
    qx_.resize(nx);
    qu_.resize(n);
    tmpu_.resize(n);
    tmpx_.resize(nx);
    vxx_.resize(nx, nx);
    va_.resize(nx, nx);
    qxx_.resize(nx, nx);
    qux_.resize(n, nx);
    vbb_.resize(n, n);
    quu_.resize(n, n);
    quuk_.resize(n, nx);
    kqux_.resize(nx, nx);
    rhs_.resize(n, 1 + nx);
}

void
RiccatiSweep::assemble(const RiccatiKnot &knot)
{
    const int n = n_;
    const double h = h_;
    const MatrixX &fq = knot.fq;
    const MatrixX &fqd = knot.fqd;
    const MatrixX &minv = knot.minv;
    assert(static_cast<int>(fq.rows()) == n &&
           static_cast<int>(minv.rows()) == n);

    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            a_(n + i, j) = h * fq(i, j);
            a_(n + i, n + j) = (i == j ? 1.0 : 0.0) + h * fqd(i, j);
            bb_(i, j) = h * minv(i, j);
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
    const VectorX &v = knot.qd;
    for (const Patch &p : patches_) {
        const int vi = p.vi;
        const Vec3 homega{h * v[vi], h * v[vi + 1], h * v[vi + 2]};
        const Mat3 eht = so3Exp(homega).transpose();
        const Mat3 hjr = so3RightJacobian(homega) * h;
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j) {
                a_(vi + i, vi + j) = eht(i, j);
                a_(vi + i, n + vi + j) = hjr(i, j);
            }
        }
        if (p.floating) {
            const Vec3 vlin{v[vi + 3], v[vi + 4], v[vi + 5]};
            const Mat3 dp_dphi = eht * linalg::skew(vlin) * (-h);
            for (int i = 0; i < 3; ++i) {
                for (int j = 0; j < 3; ++j) {
                    a_(vi + 3 + i, vi + j) = dp_dphi(i, j);
                    a_(vi + 3 + i, vi + 3 + j) = eht(i, j);
                    a_(vi + 3 + i, n + vi + 3 + j) = h * eht(i, j);
                }
            }
        }
    }
}

bool
RiccatiSweep::step(const RiccatiKnot &knot, VectorX &kff, MatrixX &K,
                   RiccatiTerms &terms)
{
    const int n = n_;
    const int nx = 2 * n;
    assemble(knot);

    // Row-major views. A's bottom half (h·fq | I + h·fqd) and the
    // bottom rows of V'x, V'xx and VA are the dense operands; A's top
    // half enters through its column pattern only.
    const double *a_bot = &a_(n, 0);
    const double *bb = bb_.data();
    const double *vx_bot = &vx_[n];

    // Q-function gradients: Qx = ℓx + Aᵀ·V'x, Qu = ℓu + Bᵀ·V'x.
    for (int i = 0; i < nx; ++i) {
        double s = 0.0;
        for (int r = top_lo_[i]; r < top_hi_[i]; ++r)
            s += a_(r, i) * vx_[r];
        qx_[i] = s;
    }
    gemmTransAccumulate(nx, 1, n, a_bot, nx, vx_bot, 1, qx_.data(), 1);
    for (int j = 0; j < nx; ++j)
        qx_[j] += knot.lx[j];
    qu_.setAll(0.0);
    gemmTransAccumulate(n, 1, n, bb, n, vx_bot, 1, qu_.data(), 1);
    for (int j = 0; j < n; ++j)
        qu_[j] += knot.lu[j];
    terms.qu_max = qu_.maxAbs();

    // Q-function Hessians. VA = V'xx·A: A's top half, then its
    // bottom half against V'xx's right columns. Outside the patch
    // columns the top half contributes one term, V'xx(i, c)·1 or
    // V'xx(i, c)·h, added to +0 as the sum would.
    const double h = h_;
    for (int i = 0; i < nx; ++i) {
        const double *vrow = &vxx_(i, 0);
        double *out = &va_(i, 0);
        for (int c = 0; c < n; ++c) {
            out[c] = 0.0 + vrow[c];
            out[n + c] = 0.0 + vrow[c] * h;
        }
        for (int c : patch_cols_) {
            double s = 0.0;
            for (int r = top_lo_[c]; r < top_hi_[c]; ++r)
                s += vrow[r] * a_(r, c);
            out[c] = s;
        }
    }
    gemmAccumulate(nx, nx, n, &vxx_(0, n), nx, a_bot, nx, va_.data(), nx);
    // Qxx = ℓxx + Aᵀ·VA, top rows of A first.
    qxx_.setZero();
    for (int i = 0; i < nx; ++i) {
        double *qi = &qxx_(i, 0);
        for (int r = top_lo_[i]; r < top_hi_[i]; ++r) {
            const double ari = a_(r, i);
            const double *var = &va_(r, 0);
            for (int c = 0; c < nx; ++c)
                qi[c] += ari * var[c];
        }
    }
    gemmTransAccumulate(nx, nx, n, a_bot, nx, &va_(n, 0), nx, qxx_.data(),
                        nx);
    for (int j = 0; j < n; ++j) {
        qxx_(j, j) += knot.wq;
        qxx_(n + j, n + j) += knot.wqd;
    }
    // Qux = Bᵀ·VA and Quu = ℓuu + Bᵀ·V'xx·B: B's top half is zero.
    qux_.setZero();
    gemmTransAccumulate(n, nx, n, bb, n, &va_(n, 0), nx, qux_.data(), nx);
    vbb_.setZero();
    gemmAccumulate(n, n, n, &vxx_(n, n), nx, bb, n, vbb_.data(), n);
    quu_.setZero();
    gemmTransAccumulate(n, n, n, bb, n, vbb_.data(), n, quu_.data(), n);
    for (int j = 0; j < n; ++j)
        quu_(j, j) += knot.quu_diag;

    // Gains: Quu · [kff | K] = -[Qu | Qux], one multi-RHS solve.
    for (int i = 0; i < n; ++i) {
        rhs_(i, 0) = -qu_[i];
        for (int j = 0; j < nx; ++j)
            rhs_(i, 1 + j) = -qux_(i, j);
    }
    if (n <= linalg::SmallLdlt::kMaxDim) {
        if (!quu_small_.compute(quu_.data(), n))
            return false;
        for (int i = 0; i < n; ++i) {
            if (!(quu_small_.pivot(i) > 0.0))
                return false; // not PD (or NaN): raise regularization
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
        if (!quu_ldlt_.compute(quu_))
            return false;
        for (int i = 0; i < n; ++i) {
            if (!(quu_ldlt_.vectorD()[i] > 0.0))
                return false; // not PD (or NaN): raise regularization
        }
        quu_ldlt_.solveInPlace(rhs_);
    }
    for (int i = 0; i < n; ++i) {
        kff[i] = rhs_(i, 0);
        for (int j = 0; j < nx; ++j)
            K(i, j) = rhs_(i, 1 + j);
    }

    // Expected-decrease terms: kffᵀQu < 0 and kffᵀQuu·kff > 0 when PD.
    quu_.multiplyInto(kff, tmpu_);
    const double k_quu_k = kff.dot(tmpu_);
    if (!(k_quu_k >= 0.0))
        return false; // Quu indefinite despite factorization, or a
                      // non-finite Qu: no regularization fixes the
                      // latter, so the solver stalls on it explicitly
    terms.kff_qu = kff.dot(qu_);
    terms.kff_quu_kff = k_quu_k;

    // Value recursion:
    //   Vx  = Qx + Kᵀ(Quu·kff + Qu) + Quxᵀ·kff
    //   Vxx = Qxx + Kᵀ·Quu·K + Kᵀ·Qux + Quxᵀ·K (symmetrized)
    for (int i = 0; i < n; ++i)
        tmpu_[i] += qu_[i];
    K.transposeMultiplyInto(tmpu_, tmpx_);
    vx_ = qx_;
    for (int j = 0; j < nx; ++j)
        vx_[j] += tmpx_[j];
    qux_.transposeMultiplyInto(kff, tmpx_);
    for (int j = 0; j < nx; ++j)
        vx_[j] += tmpx_[j];

    quuk_.setZero();
    gemmAccumulate(n, nx, n, quu_.data(), n, K.data(), nx, quuk_.data(), nx);
    vxx_.setZero();
    gemmTransAccumulate(nx, nx, n, K.data(), nx, quuk_.data(), nx,
                        vxx_.data(), nx);
    kqux_.setZero();
    gemmTransAccumulate(nx, nx, n, K.data(), nx, qux_.data(), nx,
                        kqux_.data(), nx);
    for (int i = 0; i < nx; ++i)
        for (int j = 0; j < nx; ++j)
            vxx_(i, j) += qxx_(i, j) + kqux_(i, j) + kqux_(j, i);
    for (int i = 0; i < nx; ++i) {
        for (int j = i + 1; j < nx; ++j) {
            const double s = 0.5 * (vxx_(i, j) + vxx_(j, i));
            vxx_(i, j) = s;
            vxx_(j, i) = s;
        }
    }
    return true;
}

} // namespace dadu::ctrl
