#include "accel/core_state.h"

#include <cmath>

#include "fixed/fixed_point.h"
#include "fixed/trig.h"
#include "model/joint.h"
#include "spatial/cross.h"
#include "linalg/factorize.h"
#include "spatial/inertia.h"

namespace dadu::accel {

using linalg::Vec6;
using model::JointType;
using spatial::crossForce;
using spatial::crossMotion;

FunctionalCore::FunctionalCore(const RobotModel &robot, NumericConfig cfg)
    : robot_(robot), cfg_(cfg),
      grid_(static_cast<double>(std::int64_t{1} << cfg.frac_bits))
{}

double
FunctionalCore::quantize(double x) const
{
    if (!cfg_.fixed_point)
        return x;
    return std::round(x * grid_) / grid_;
}

Vec6
FunctionalCore::quantize(const Vec6 &v) const
{
    if (!cfg_.fixed_point)
        return v;
    Vec6 r;
    for (int i = 0; i < 6; ++i)
        r[i] = quantize(v[i]);
    return r;
}

void
FunctionalCore::quantizeCols(std::vector<Vec6> &cols) const
{
    if (!cfg_.fixed_point)
        return;
    for (auto &c : cols)
        c = quantize(c);
}

SpatialTransform
FunctionalCore::linkTransform(const TaskState &st, int link) const
{
    const auto &l = robot_.link(link);
    if (model::isRevolute(l.joint)) {
        // Hardware path: the Global Trigonometric Module supplies
        // Taylor-series sin/cos (Section V-B2).
        const double q = st.in.q[l.qIndex];
        const auto [s, c] = fixed::taylorSinCos(q, cfg_.taylor_terms);
        linalg::Mat3 e;
        switch (l.joint) {
          case JointType::RevoluteX:
            e = linalg::Mat3{1, 0, 0, 0, c, s, 0, -s, c};
            break;
          case JointType::RevoluteY:
            e = linalg::Mat3{c, 0, -s, 0, 1, 0, s, 0, c};
            break;
          default:
            e = linalg::Mat3{c, s, 0, -s, c, 0, 0, 0, 1};
            break;
        }
        return SpatialTransform::rotation(e) * l.xtree;
    }
    return robot_.linkTransform(link, st.in.q);
}

void
FunctionalCore::initTask(TaskState &st, const TaskInput &in) const
{
    const int nb = robot_.nb();
    const int nv = robot_.nv();
    st.in = in;
    st.out = TaskOutput{};
    st.xup.assign(nb, SpatialTransform::identity());
    st.v.assign(nb, Vec6::zero());
    st.a.assign(nb, Vec6::zero());
    st.f.assign(nb, Vec6::zero());
    st.tau.resize(nv);
    st.bias.resize(nv);
    st.qdd.resize(nv);
    st.dv_dq.assign(nb, std::vector<Vec6>(nv, Vec6::zero()));
    st.dv_dqd.assign(nb, std::vector<Vec6>(nv, Vec6::zero()));
    st.da_dq.assign(nb, std::vector<Vec6>(nv, Vec6::zero()));
    st.da_dqd.assign(nb, std::vector<Vec6>(nv, Vec6::zero()));
    st.df_dq.assign(nb, std::vector<Vec6>(nv, Vec6::zero()));
    st.df_dqd.assign(nb, std::vector<Vec6>(nv, Vec6::zero()));
    st.dtau_dq.resize(nv, nv);
    st.dtau_dqd.resize(nv, nv);
    st.ia.assign(nb, Mat66::zero());
    st.fcols.assign(nb, MatrixX(6, nv));
    st.pcols.assign(nb, MatrixX(6, nv));
    st.mwork.resize(nv, nv);
    st.ucache.assign(nb, {});
    st.dinvcache.assign(nb, MatrixX());
    // Invalid seeds are rejected at backend submit; resolve() leaves
    // the plan dense for an empty (or malformed) seed.
    st.plan.resolve(in.seed_cols, nv);
    st.active = true;
}

void
FunctionalCore::rneaFwd(TaskState &st, int link, bool zero_qdd) const
{
    const int lam = robot_.parent(link);
    st.xup[link] = linkTransform(st, link);
    const auto &s = robot_.subspace(link);

    const Vec6 vj = s.apply(robot_.jointVelocity(link, st.in.qd));
    Vec6 aj;
    if (!zero_qdd) {
        const auto &l = robot_.link(link);
        for (int k = 0; k < s.nv(); ++k)
            aj += s.col(k) * st.qdd[l.vIndex + k];
    }

    const Vec6 vparent = lam == -1 ? Vec6::zero() : st.v[lam];
    const Vec6 aparent = lam == -1 ? robot_.gravity() : st.a[lam];

    st.v[link] = quantize(st.xup[link].applyMotion(vparent) + vj);
    st.a[link] = quantize(st.xup[link].applyMotion(aparent) + aj +
                          crossMotion(st.v[link], vj));
    Vec6 f = robot_.link(link).inertia.apply(st.a[link]) +
             crossForce(st.v[link],
                        robot_.link(link).inertia.apply(st.v[link]));
    if (!st.in.fext.empty())
        f -= st.in.fext[link];
    st.f[link] = quantize(f);
}

void
FunctionalCore::rneaBwd(TaskState &st, int link) const
{
    // X is re-updated rather than transferred (Section IV-A2); the
    // value is identical so we reuse st.xup.
    const auto &s = robot_.subspace(link);
    const auto &l = robot_.link(link);
    const VectorX taui = s.applyTranspose(st.f[link]);
    for (int k = 0; k < s.nv(); ++k)
        st.tau[l.vIndex + k] = quantize(taui[k]);
    const int lam = robot_.parent(link);
    if (lam != -1) {
        // Lazy update: the addend is handed to the parent submodule.
        st.f[lam] = quantize(
            st.f[lam] + st.xup[link].applyTransposeForce(st.f[link]));
    }
}

void
FunctionalCore::deltaFwd(TaskState &st, int link) const
{
    const int lam = robot_.parent(link);
    const auto &s = robot_.subspace(link);
    const auto &l = robot_.link(link);
    const int ni = s.nv();

    const Vec6 vj = s.apply(robot_.jointVelocity(link, st.in.qd));
    const Vec6 vparent = lam == -1 ? Vec6::zero() : st.v[lam];
    const Vec6 aparent = lam == -1 ? robot_.gravity() : st.a[lam];
    const Vec6 vc = st.xup[link].applyMotion(vparent);
    const Vec6 ac = st.xup[link].applyMotion(aparent);

    // Ancestor columns (incremental calculation: only path DOFs).
    // Dead columns under the task's plan are skipped outright — their
    // ∂v/∂a/∂f stay at initTask's zeros and nothing downstream reads
    // them.
    if (lam != -1) {
        for (int anc = lam; anc != -1; anc = robot_.parent(anc)) {
            const auto &la = robot_.link(anc);
            for (int k = 0; k < robot_.subspace(anc).nv(); ++k) {
                const int col = la.vIndex + k;
                if (!st.plan.isLive(col))
                    continue;
                const Vec6 dvq =
                    st.xup[link].applyMotion(st.dv_dq[lam][col]);
                const Vec6 dvqd =
                    st.xup[link].applyMotion(st.dv_dqd[lam][col]);
                st.dv_dq[link][col] = dvq;
                st.dv_dqd[link][col] = dvqd;
                st.da_dq[link][col] =
                    st.xup[link].applyMotion(st.da_dq[lam][col]) +
                    crossMotion(dvq, vj);
                st.da_dqd[link][col] =
                    st.xup[link].applyMotion(st.da_dqd[lam][col]) +
                    crossMotion(dvqd, vj);
            }
        }
    }
    // Own-DOF (newly added) columns.
    for (int k = 0; k < ni; ++k) {
        const int col = l.vIndex + k;
        if (!st.plan.isLive(col))
            continue;
        const Vec6 sk = s.col(k);
        const Vec6 dvq = crossMotion(vc, sk);
        st.dv_dq[link][col] = dvq;
        st.dv_dqd[link][col] = sk;
        st.da_dq[link][col] = crossMotion(ac, sk) + crossMotion(dvq, vj);
        st.da_dqd[link][col] =
            crossMotion(sk, vj) + crossMotion(st.v[link], sk);
    }

    // ∂f columns for all active (path) columns.
    const auto &inertia = robot_.link(link).inertia;
    const Vec6 iv = inertia.apply(st.v[link]);
    for (int anc = link; anc != -1; anc = robot_.parent(anc)) {
        const auto &la = robot_.link(anc);
        for (int k = 0; k < robot_.subspace(anc).nv(); ++k) {
            const int col = la.vIndex + k;
            if (!st.plan.isLive(col))
                continue;
            st.df_dq[link][col] =
                inertia.apply(st.da_dq[link][col]) +
                crossForce(st.dv_dq[link][col], iv) +
                crossForce(st.v[link],
                           inertia.apply(st.dv_dq[link][col]));
            st.df_dqd[link][col] =
                inertia.apply(st.da_dqd[link][col]) +
                crossForce(st.dv_dqd[link][col], iv) +
                crossForce(st.v[link],
                           inertia.apply(st.dv_dqd[link][col]));
        }
    }
    quantizeCols(st.dv_dq[link]);
    quantizeCols(st.dv_dqd[link]);
    quantizeCols(st.da_dq[link]);
    quantizeCols(st.da_dqd[link]);
    quantizeCols(st.df_dq[link]);
    quantizeCols(st.df_dqd[link]);
}

void
FunctionalCore::deltaBwd(TaskState &st, int link) const
{
    const int lam = robot_.parent(link);
    const auto &s = robot_.subspace(link);
    const auto &l = robot_.link(link);
    const int ni = s.nv();
    const int nv = robot_.nv();

    for (int col = 0; col < nv; ++col) {
        if (!st.plan.isLive(col))
            continue;
        for (int r = 0; r < ni; ++r) {
            st.dtau_dq(l.vIndex + r, col) =
                quantize(s.col(r).dot(st.df_dq[link][col]));
            st.dtau_dqd(l.vIndex + r, col) =
                quantize(s.col(r).dot(st.df_dqd[link][col]));
        }
    }
    if (lam != -1) {
        // Backward transfer btr = λX*(∂f + S ×* f) (Fig. 7), lazily
        // accumulated into the parent's columns.
        for (int col = 0; col < nv; ++col) {
            if (!st.plan.isLive(col))
                continue;
            Vec6 dq_col = st.df_dq[link][col];
            if (col >= l.vIndex && col < l.vIndex + ni)
                dq_col += crossForce(s.col(col - l.vIndex), st.f[link]);
            if (dq_col.maxAbs() != 0.0) {
                st.df_dq[lam][col] = quantize(
                    st.df_dq[lam][col] +
                    st.xup[link].applyTransposeForce(dq_col));
            }
            const Vec6 &dqd_col = st.df_dqd[link][col];
            if (dqd_col.maxAbs() != 0.0) {
                st.df_dqd[lam][col] = quantize(
                    st.df_dqd[lam][col] +
                    st.xup[link].applyTransposeForce(dqd_col));
            }
        }
    }
}

void
FunctionalCore::mminvBwd(TaskState &st, int link, bool out_m) const
{
    const int lam = robot_.parent(link);
    st.xup[link] = linkTransform(st, link);
    const auto &s = robot_.subspace(link);
    const auto &l = robot_.link(link);
    const int ni = s.nv();
    const int vi = l.vIndex;

    st.ia[link] += robot_.link(link).inertia.toMatrix();

    std::vector<Vec6> u(ni);
    for (int k = 0; k < ni; ++k)
        u[k] = st.ia[link] * s.col(k);
    MatrixX d(ni, ni);
    for (int r = 0; r < ni; ++r)
        for (int k = 0; k < ni; ++k)
            d(r, k) = s.col(r).dot(u[k]);

    // D⁻¹ through the float-assisted reciprocal for 1-DOF joints
    // (Section IV-B2); small LDLT inverse for multi-DOF roots.
    MatrixX dinv(ni, ni);
    if (ni == 1) {
        if (cfg_.fixed_point) {
            const auto fx = fixed::FixedPoint<29>(d(0, 0));
            dinv(0, 0) = fixed::reciprocalRefined(fx).toDouble();
        } else {
            dinv(0, 0) = 1.0 / d(0, 0);
        }
    } else {
        dinv = linalg::Ldlt(d).inverse();
    }
    // Forwarded to the Mf submodule via the dtr stream (Fig. 8b).
    st.ucache[link] = u;
    st.dinvcache[link] = dinv;

    // Subtree DOF columns (branch-induced sparsity).
    std::vector<int> cols;
    for (int j : robot_.subtree(link)) {
        const auto &lj = robot_.link(j);
        for (int k = 0; k < robot_.subspace(j).nv(); ++k)
            cols.push_back(lj.vIndex + k);
    }

    if (!out_m) {
        for (int r = 0; r < ni; ++r)
            for (int k = 0; k < ni; ++k)
                st.mwork(vi + r, vi + k) = quantize(dinv(r, k));
        for (int j : cols) {
            if (j >= vi && j < vi + ni)
                continue;
            VectorX stf(ni);
            for (int r = 0; r < ni; ++r) {
                double acc = 0.0;
                for (int a = 0; a < 6; ++a)
                    acc += s.col(r)[a] * st.fcols[link](a, j);
                stf[r] = acc;
            }
            for (int r = 0; r < ni; ++r) {
                double val = 0.0;
                for (int k = 0; k < ni; ++k)
                    val -= dinv(r, k) * stf[k];
                st.mwork(vi + r, j) = quantize(val);
            }
        }
    } else {
        for (int r = 0; r < ni; ++r)
            for (int k = 0; k < ni; ++k)
                st.mwork(vi + r, vi + k) = quantize(d(r, k));
        for (int j : cols) {
            if (j >= vi && j < vi + ni)
                continue;
            for (int r = 0; r < ni; ++r) {
                double acc = 0.0;
                for (int a = 0; a < 6; ++a)
                    acc += s.col(r)[a] * st.fcols[link](a, j);
                st.mwork(vi + r, j) = quantize(acc);
                st.mwork(j, vi + r) = st.mwork(vi + r, j);
            }
        }
    }

    if (lam != -1) {
        if (!out_m) {
            // F[:, tree] += U Minv[i, tree]; IA -= U D⁻¹ U^T.
            for (int j : cols) {
                for (int a = 0; a < 6; ++a) {
                    double acc = 0.0;
                    for (int k = 0; k < ni; ++k)
                        acc += u[k][a] * st.mwork(vi + k, j);
                    st.fcols[link](a, j) =
                        quantize(st.fcols[link](a, j) + acc);
                }
            }
            for (int r = 0; r < ni; ++r)
                for (int k = 0; k < ni; ++k) {
                    const double dk = dinv(r, k);
                    if (dk == 0.0)
                        continue;
                    for (int a = 0; a < 6; ++a)
                        for (int b = 0; b < 6; ++b)
                            st.ia[link](a, b) -= dk * u[r][a] * u[k][b];
                }
        } else {
            for (int k = 0; k < ni; ++k)
                for (int a = 0; a < 6; ++a)
                    st.fcols[link](a, vi + k) = u[k][a];
        }
        // Lazy updates into the parent: F and I^A (priority vector in
        // hardware; plain accumulation here).
        for (int j : cols) {
            Vec6 col;
            for (int a = 0; a < 6; ++a)
                col[a] = st.fcols[link](a, j);
            const Vec6 up = st.xup[link].applyTransposeForce(col);
            for (int a = 0; a < 6; ++a)
                st.fcols[lam](a, j) = quantize(st.fcols[lam](a, j) + up[a]);
        }
        const Mat66 xm = st.xup[link].toMatrix();
        st.ia[lam] += xm.transpose() * st.ia[link] * xm;
        if (cfg_.fixed_point) {
            for (int a = 0; a < 6; ++a)
                for (int b = 0; b < 6; ++b)
                    st.ia[lam](a, b) = quantize(st.ia[lam](a, b));
        }
    }
}

void
FunctionalCore::mminvFwd(TaskState &st, int link) const
{
    const int lam = robot_.parent(link);
    const auto &s = robot_.subspace(link);
    const auto &l = robot_.link(link);
    const int ni = s.nv();
    const int vi = l.vIndex;
    const int nv = robot_.nv();

    if (lam != -1) {
        // Minv[i, i:] -= D⁻¹ U^T (X P_λ[:, i:]).
        for (int j = vi; j < nv; ++j) {
            Vec6 pcol;
            for (int a = 0; a < 6; ++a)
                pcol[a] = st.pcols[lam](a, j);
            const Vec6 xp = st.xup[link].applyMotion(pcol);
            VectorX ut(ni);
            for (int r = 0; r < ni; ++r)
                ut[r] = st.ucache[link][r].dot(xp);
            for (int r = 0; r < ni; ++r) {
                double val = 0.0;
                for (int k = 0; k < ni; ++k)
                    val += st.dinvcache[link](r, k) * ut[k];
                st.mwork(vi + r, j) =
                    quantize(st.mwork(vi + r, j) - val);
            }
        }
    }
    // P_i[:, i:] = S Minv[i, i:] (+ X P_λ[:, i:]).
    for (int j = vi; j < nv; ++j) {
        Vec6 pcol;
        for (int k = 0; k < ni; ++k)
            pcol += s.col(k) * st.mwork(vi + k, j);
        if (lam != -1) {
            Vec6 plam;
            for (int a = 0; a < 6; ++a)
                plam[a] = st.pcols[lam](a, j);
            pcol += st.xup[link].applyMotion(plam);
        }
        pcol = quantize(pcol);
        for (int a = 0; a < 6; ++a)
            st.pcols[link](a, j) = pcol[a];
    }
}

namespace {

/** Mirror the upper triangle (the BF pipeline emits rows i, i:). */
MatrixX
fullSymmetric(const MatrixX &m)
{
    MatrixX out = m;
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = r + 1; c < out.cols(); ++c)
            out(c, r) = out(r, c);
    return out;
}

} // namespace

void
FunctionalCore::scheduleFd(TaskState &st) const
{
    const int nv = robot_.nv();
    const MatrixX minv =
        st.in.minv.rows() == static_cast<std::size_t>(nv)
            ? st.in.minv
            : fullSymmetric(st.mwork);
    VectorX rhs(nv);
    for (int i = 0; i < nv; ++i)
        rhs[i] = st.in.qdd_or_tau[i] - st.tau[i];
    st.qdd = minv * rhs;
    for (int i = 0; i < nv; ++i)
        st.qdd[i] = quantize(st.qdd[i]);
}

void
FunctionalCore::scheduleDeltaFd(TaskState &st) const
{
    const int nv = robot_.nv();
    const MatrixX minv =
        st.in.minv.rows() == static_cast<std::size_t>(nv)
            ? st.in.minv
            : fullSymmetric(st.mwork);
    if (!st.plan.dense()) {
        // Step ⑥ prices and computes only the live columns of
        // ∂u q̈ = -M⁻¹ ∂uτ; dead columns stay at resize()'s 0.0.
        st.out.dqdd_dq.resize(nv, nv);
        st.out.dqdd_dqd.resize(nv, nv);
        for (int c : st.plan.cols()) {
            for (int r = 0; r < nv; ++r) {
                double accq = 0.0, accqd = 0.0;
                for (int k = 0; k < nv; ++k) {
                    accq += minv(r, k) * st.dtau_dq(k, c);
                    accqd += minv(r, k) * st.dtau_dqd(k, c);
                }
                st.out.dqdd_dq(r, c) = quantize(-accq);
                st.out.dqdd_dqd(r, c) = quantize(-accqd);
            }
        }
        return;
    }
    st.out.dqdd_dq = -(minv * st.dtau_dq);
    st.out.dqdd_dqd = -(minv * st.dtau_dqd);
    if (cfg_.fixed_point) {
        for (int r = 0; r < nv; ++r)
            for (int c = 0; c < nv; ++c) {
                st.out.dqdd_dq(r, c) = quantize(st.out.dqdd_dq(r, c));
                st.out.dqdd_dqd(r, c) = quantize(st.out.dqdd_dqd(r, c));
            }
    }
}

} // namespace dadu::accel
