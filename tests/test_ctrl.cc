/**
 * @file
 * Tests for the trajectory-optimization subsystem (src/ctrl/):
 *
 *  - manifold difference: RobotModel::differenceInto inverts
 *    integrate() on every joint type (quaternion log map);
 *  - iLQR convergence: monotone accepted-cost trace, gradient /
 *    cost tolerances met on all three scenarios of all three
 *    evaluation robots, dynamics served by the CPU batched backend;
 *  - backend equivalence: solver trajectories bitwise-identical
 *    between CpuBatchedBackend and AnalyticBackend numerics (the
 *    control-grade claim of the unified runtime);
 *  - zero steady-state allocations in the solve loop (counted
 *    global allocator), on both the SmallLdlt (nv <= 6) and the
 *    Ldlt Riccati paths;
 *  - the structured Riccati step bitwise against the dense MatrixX
 *    formulation it replaced (kept here as the oracle), on serial,
 *    floating-base and spherical-joint robots, with its products on
 *    the build the host dispatches to (x86-64-v4 where it runs);
 *  - non-finite input (a NaN initial state or Jacobian) ends in an
 *    explicit outcome: rejected iterations, a stall or the
 *    iteration cap, never an accepted non-finite trajectory;
 *  - receding-horizon MpcSession: closed-loop tracking on iiwa,
 *    bounded behavior on the floating-base HyQ, deadline accounting
 *    of the multi-client closed-loop serving scenario;
 *  - the end-to-end claims on the real closed loop: serving makespan
 *    shrinks with accelerator shards, and the simulated accelerator's
 *    modeled dynamics time is far below the CPU backend's measured
 *    one (Section VI-B).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>

#include "app/closed_loop.h"
#include "ctrl/ilqr.h"
#include "ctrl/mpc_session.h"
#include "ctrl/riccati.h"
#include "ctrl/scenarios.h"
#include "linalg/gemm.h"
#include "model/builders.h"
#include "model/quaternion.h"
#include "runtime/backends.h"
#include "runtime/sched/policy.h"
#include "runtime/server.h"
#include "test_support.h"

// ---------------------------------------------------------------------
// Counted global allocator (same idiom as test_batched/test_runtime):
// off by default, switched on around the measured solve only.
// ---------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace dadu;
using dadu::linalg::MatrixX;
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::tests::expectBitwiseEqual;

/**
 * Revolute base, spherical shoulder, revolute elbow, spherical wrist
 * (nv = 8, two quaternion joints). No stock builder has a spherical
 * joint, so this is the robot that exercises their manifold patches.
 */
RobotModel
makeBallJointArm()
{
    using model::JointType;
    using spatial::SpatialInertia;
    using spatial::SpatialTransform;
    auto limb = [](double m, double len) {
        linalg::Mat3 i;
        i(0, 0) = m * len * len / 12.0;
        i(1, 1) = i(0, 0);
        i(2, 2) = 0.01 * m;
        return SpatialInertia::fromComInertia(
            m, linalg::Vec3{0, 0, 0.5 * len}, i);
    };
    auto up = [](double z) {
        return SpatialTransform::translation(linalg::Vec3{0, 0, z});
    };
    RobotModel robot("ball-arm");
    int id = robot.addLink("base", -1, JointType::RevoluteZ, up(0.1),
                           limb(3.0, 0.2));
    id = robot.addLink("shoulder", id, JointType::Spherical, up(0.2),
                       limb(2.0, 0.35));
    id = robot.addLink("elbow", id, JointType::RevoluteY, up(0.35),
                       limb(1.5, 0.3));
    robot.addLink("wrist", id, JointType::Spherical, up(0.3),
                  limb(0.5, 0.1));
    return robot;
}

// ---------------------------------------------------------------------
// Manifold difference
// ---------------------------------------------------------------------

TEST(ModelDifference, InvertsIntegrateOnEveryJointType)
{
    std::mt19937 rng(11);
    for (auto make :
         {model::makeIiwa, model::makeHyq, model::makeAtlas,
          model::makeQuadrupedArm, model::makeTiago}) {
        const RobotModel robot = make();
        for (int trial = 0; trial < 20; ++trial) {
            const VectorX q = robot.randomConfiguration(rng);
            VectorX dv = robot.randomVelocity(rng);
            dv *= 0.5; // keep rotations well inside the log-map range
            const VectorX q2 = robot.integrate(q, dv);
            const VectorX back = robot.difference(q, q2);
            ASSERT_EQ(back.size(), dv.size());
            for (std::size_t j = 0; j < dv.size(); ++j)
                EXPECT_NEAR(back[j], dv[j], 1e-9)
                    << robot.name() << " dof " << j;
        }
    }
}

TEST(ModelDifference, IdentityAndAllocationFree)
{
    const RobotModel robot = model::makeAtlas();
    std::mt19937 rng(5);
    const VectorX q = robot.randomConfiguration(rng);
    VectorX out;
    robot.differenceInto(q, q, out); // size the output
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    robot.differenceInto(q, q, out);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0);
    EXPECT_NEAR(out.maxAbs(), 0.0, 1e-15);
}

// ---------------------------------------------------------------------
// Solver convergence
// ---------------------------------------------------------------------

TEST(Ilqr, ConvergesOnAllRobotsAndScenarios)
{
    for (auto make : {model::makeIiwa, model::makeHyq, model::makeAtlas}) {
        const RobotModel robot = make();
        runtime::CpuBatchedBackend backend(robot, 2);
        for (int which = 0; which < 3; ++which) {
            const ctrl::Scenario sc = ctrl::makeScenario(robot, which);
            ctrl::IlqrSolver solver(robot, sc.problem);
            const ctrl::IlqrSummary sum =
                solver.solve(backend, sc.q0, sc.qd0);

            SCOPED_TRACE(robot.name() + std::string(" / ") + sc.name);
            EXPECT_TRUE(sum.converged);
            EXPECT_FALSE(solver.stalled());
            EXPECT_LT(sum.cost, sum.initial_cost);
            // Stationarity: the Hamiltonian gradient residual is
            // driven down by orders of magnitude. The exact discrete
            // manifold Jacobians (right-Jacobian blocks instead of
            // ∂(q ⊕ h·q̇)/∂δq ≈ I on quaternion joints) hold every
            // robot/scenario pair below 7e-3.
            EXPECT_LT(sum.grad_norm, 7e-3);

            // Monotone accepted-cost trace.
            const std::vector<double> &trace = solver.costTrace();
            ASSERT_GE(trace.size(), 2u);
            for (std::size_t i = 1; i < trace.size(); ++i)
                EXPECT_LE(trace[i], trace[i - 1]);
        }
    }
}

TEST(Ilqr, SmallControlSpaceUsesConvergentSmallLdltPath)
{
    // nv = 4 <= SmallLdlt::kMaxDim exercises the stack-resident
    // factorization branch of the backward pass.
    const RobotModel robot = model::makeSerialChain(4);
    runtime::CpuBatchedBackend backend(robot, 2);
    const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
    ctrl::IlqrSolver solver(robot, sc.problem);
    const ctrl::IlqrSummary sum = solver.solve(backend, sc.q0, sc.qd0);
    EXPECT_TRUE(sum.converged);
    EXPECT_LT(sum.cost, sum.initial_cost);
}

// ---------------------------------------------------------------------
// Backend equivalence
// ---------------------------------------------------------------------

TEST(Ilqr, TrajectoriesBitwiseIdenticalAcrossCpuAndAnalyticBackends)
{
    for (auto make : {model::makeIiwa, model::makeHyq}) {
        const RobotModel robot = make();
        accel::Accelerator accel(robot);
        runtime::CpuBatchedBackend cpu(robot, 4);
        runtime::AnalyticBackend analytic(accel);

        const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
        ctrl::IlqrSolver s_cpu(robot, sc.problem);
        ctrl::IlqrSolver s_ana(robot, sc.problem);
        const ctrl::IlqrSummary r_cpu =
            s_cpu.solve(cpu, sc.q0, sc.qd0);
        const ctrl::IlqrSummary r_ana =
            s_ana.solve(analytic, sc.q0, sc.qd0);

        SCOPED_TRACE(robot.name());
        EXPECT_EQ(r_cpu.iterations, r_ana.iterations);
        EXPECT_EQ(r_cpu.cost, r_ana.cost);
        EXPECT_EQ(r_cpu.grad_norm, r_ana.grad_norm);
        for (int k = 0; k <= s_cpu.knots(); ++k) {
            expectBitwiseEqual(s_cpu.q(k), s_ana.q(k));
            expectBitwiseEqual(s_cpu.qd(k), s_ana.qd(k));
        }
        for (int k = 0; k < s_cpu.knots(); ++k)
            expectBitwiseEqual(s_cpu.u(k), s_ana.u(k));
    }
}

// ---------------------------------------------------------------------
// Zero steady-state allocations
// ---------------------------------------------------------------------

TEST(Ilqr, SolveLoopIsAllocationFreeInSteadyState)
{
    // Both Riccati paths: serial chain (nv = 4, SmallLdlt) and HyQ
    // (nv = 18, Ldlt). The first solve sizes every workspace; the
    // measured re-solve of the same problem must not allocate —
    // linearization staging, backward sweep, rollouts and line
    // search included.
    struct Case
    {
        RobotModel robot;
        const char *label;
    };
    const Case cases[] = {
        {model::makeSerialChain(4), "serial4-smallldlt"},
        {model::makeHyq(), "hyq-ldlt"},
    };
    for (const Case &c : cases) {
        runtime::CpuBatchedBackend backend(c.robot, 2);
        const ctrl::Scenario sc = ctrl::makeReachingScenario(c.robot);
        ctrl::IlqrSolver solver(c.robot, sc.problem);
        ctrl::BackendChannel channel(backend);

        // Warm-up: sizes solver workspaces, engine staging and
        // result storage along the whole iterate path.
        solver.solve(channel, sc.q0, sc.qd0);

        g_alloc_count.store(0);
        g_count_allocs.store(true);
        solver.solve(channel, sc.q0, sc.qd0);
        g_count_allocs.store(false);
        EXPECT_EQ(g_alloc_count.load(), 0)
            << c.label << ": steady-state solve loop allocated";
    }
}

// ---------------------------------------------------------------------
// Structured Riccati step vs the dense oracle
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Count of entries whose bit patterns differ (sizes must match). */
long
bitMismatches(const VectorX &a, const VectorX &b)
{
    EXPECT_EQ(a.size(), b.size());
    long bad = 0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        bad += !sameBits(a[i], b[i]);
    return bad;
}

long
bitMismatches(const MatrixX &a, const MatrixX &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    long bad = 0;
    for (std::size_t r = 0; r < a.rows() && r < b.rows(); ++r)
        for (std::size_t c = 0; c < a.cols() && c < b.cols(); ++c)
            bad += !sameBits(a(r, c), b(r, c));
    return bad;
}

linalg::Mat3
oracleRightJacobian(const linalg::Vec3 &theta)
{
    const double t2 = theta.dot(theta);
    double c1, c2;
    if (t2 < 1e-12) {
        c1 = 0.5 - t2 / 24.0;
        c2 = 1.0 / 6.0 - t2 / 120.0;
    } else {
        const double t = std::sqrt(t2);
        c1 = (1.0 - std::cos(t)) / t2;
        c2 = (t - std::sin(t)) / (t2 * t);
    }
    const linalg::Mat3 k = linalg::skew(theta);
    const linalg::Mat3 k2 = k * k;
    linalg::Mat3 jr = linalg::Mat3::identity();
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            jr(i, j) += -c1 * k(i, j) + c2 * k2(i, j);
    return jr;
}

/**
 * The dense MatrixX formulation of one Riccati knot that
 * ctrl::RiccatiSweep replaced: full 2nv x 2nv A and 2nv x nv B, the
 * zero-skipping MatrixX products, and a column-by-column gain solve.
 * Vx/Vxx are V' on entry and V on a true return.
 */
bool
denseRiccatiStep(const RobotModel &robot, double h,
                 const ctrl::RiccatiKnot &knot, VectorX &Vx, MatrixX &Vxx,
                 VectorX &kff, MatrixX &K, ctrl::RiccatiTerms &terms)
{
    const int n = robot.nv();
    const int nx = 2 * n;
    MatrixX A(nx, nx), B(nx, n), VA, VB, Qxx, Qux, Quu, QuuK, KQux;
    MatrixX rhs(n, 1 + nx);
    VectorX Qx, Qu, tmpu, tmpx;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            A(i, j) = i == j ? 1.0 : 0.0;
            A(i, n + j) = i == j ? h : 0.0;
            A(n + i, j) = h * knot.fq(i, j);
            A(n + i, n + j) = (i == j ? 1.0 : 0.0) + h * knot.fqd(i, j);
            B(i, j) = 0.0;
            B(n + i, j) = h * knot.minv(i, j);
        }
    }
    for (int b = 0; b < robot.nb(); ++b) {
        const auto &link = robot.link(b);
        if (link.joint != model::JointType::Spherical &&
            link.joint != model::JointType::Floating)
            continue;
        const int vi = link.vIndex;
        const VectorX &v = knot.qd;
        const linalg::Vec3 homega{h * v[vi], h * v[vi + 1], h * v[vi + 2]};
        const linalg::Mat3 eht = model::Quaternion::identity()
                                     .integrated(homega)
                                     .toRotation()
                                     .transpose();
        const linalg::Mat3 hjr = oracleRightJacobian(homega) * h;
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j) {
                A(vi + i, vi + j) = eht(i, j);
                A(vi + i, n + vi + j) = hjr(i, j);
            }
        }
        if (link.joint == model::JointType::Floating) {
            const linalg::Vec3 vlin{v[vi + 3], v[vi + 4], v[vi + 5]};
            const linalg::Mat3 dp_dphi = eht * linalg::skew(vlin) * (-h);
            for (int i = 0; i < 3; ++i) {
                for (int j = 0; j < 3; ++j) {
                    A(vi + 3 + i, vi + j) = dp_dphi(i, j);
                    A(vi + 3 + i, vi + 3 + j) = eht(i, j);
                    A(vi + 3 + i, n + vi + 3 + j) = h * eht(i, j);
                }
            }
        }
    }

    A.transposeMultiplyInto(Vx, Qx);
    for (int j = 0; j < nx; ++j)
        Qx[j] += knot.lx[j];
    B.transposeMultiplyInto(Vx, Qu);
    for (int j = 0; j < n; ++j)
        Qu[j] += knot.lu[j];
    terms.qu_max = Qu.maxAbs();

    Vxx.multiplyInto(A, VA);
    A.transposeMultiplyInto(VA, Qxx);
    for (int j = 0; j < n; ++j) {
        Qxx(j, j) += knot.wq;
        Qxx(n + j, n + j) += knot.wqd;
    }
    B.transposeMultiplyInto(VA, Qux);
    Vxx.multiplyInto(B, VB);
    B.transposeMultiplyInto(VB, Quu);
    for (int j = 0; j < n; ++j)
        Quu(j, j) += knot.quu_diag;

    for (int i = 0; i < n; ++i) {
        rhs(i, 0) = -Qu[i];
        for (int j = 0; j < nx; ++j)
            rhs(i, 1 + j) = -Qux(i, j);
    }
    if (n <= linalg::SmallLdlt::kMaxDim) {
        linalg::SmallLdlt small;
        if (!small.compute(Quu))
            return false;
        for (int i = 0; i < n; ++i)
            if (small.pivot(i) <= 0.0)
                return false;
        double col[linalg::SmallLdlt::kMaxDim];
        for (int c = 0; c < 1 + nx; ++c) {
            for (int i = 0; i < n; ++i)
                col[i] = rhs(i, c);
            small.solveInPlace(col);
            for (int i = 0; i < n; ++i)
                rhs(i, c) = col[i];
        }
    } else {
        linalg::Ldlt ldlt;
        if (!ldlt.compute(Quu))
            return false;
        for (int i = 0; i < n; ++i)
            if (ldlt.vectorD()[i] <= 0.0)
                return false;
        for (int c = 0; c < 1 + nx; ++c) {
            VectorX col = rhs.col(c);
            ldlt.solveInPlace(col);
            rhs.setCol(c, col);
        }
    }
    for (int i = 0; i < n; ++i) {
        kff[i] = rhs(i, 0);
        for (int j = 0; j < nx; ++j)
            K(i, j) = rhs(i, 1 + j);
    }

    Quu.multiplyInto(kff, tmpu);
    const double k_quu_k = kff.dot(tmpu);
    if (k_quu_k < 0.0)
        return false;
    terms.kff_qu = kff.dot(Qu);
    terms.kff_quu_kff = k_quu_k;

    for (int i = 0; i < n; ++i)
        tmpu[i] += Qu[i];
    K.transposeMultiplyInto(tmpu, tmpx);
    Vx = Qx;
    for (int j = 0; j < nx; ++j)
        Vx[j] += tmpx[j];
    Qux.transposeMultiplyInto(kff, tmpx);
    for (int j = 0; j < nx; ++j)
        Vx[j] += tmpx[j];

    Quu.multiplyInto(K, QuuK);
    K.transposeMultiplyInto(QuuK, Vxx);
    K.transposeMultiplyInto(Qux, KQux);
    for (int i = 0; i < nx; ++i)
        for (int j = 0; j < nx; ++j)
            Vxx(i, j) += Qxx(i, j) + KQux(i, j) + KQux(j, i);
    for (int i = 0; i < nx; ++i) {
        for (int j = i + 1; j < nx; ++j) {
            const double s = 0.5 * (Vxx(i, j) + Vxx(j, i));
            Vxx(i, j) = s;
            Vxx(j, i) = s;
        }
    }
    return true;
}

/** Random n x m matrix in [-scale, scale] with exact ±0 entries mixed
 *  in (one in six each), as sparse Jacobian columns produce. */
MatrixX
randomWithZeros(std::size_t n, std::size_t m, double scale,
                std::mt19937 &rng)
{
    std::uniform_real_distribution<double> d(-scale, scale);
    std::uniform_int_distribution<int> pick(0, 5);
    MatrixX a(n, m);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) {
            const int p = pick(rng);
            a(i, j) = p == 0 ? 0.0 : p == 1 ? -0.0 : d(rng);
        }
    return a;
}

TEST(Riccati, StructuredStepBitwiseEqualsDenseOracle)
{
    struct Case
    {
        RobotModel robot;
        const char *label;
    };
    const Case cases[] = {
        {model::makeSerialChain(4), "serial4 (SmallLdlt)"},
        {model::makeIiwa(), "iiwa (nv 7)"},
        {model::makeHyq(), "hyq (nv 18, floating)"},
        {model::makeAtlas(), "atlas (nv 36, floating)"},
        {makeBallJointArm(), "ball-arm (nv 8, spherical)"},
    };
    // The sweep runs its products on the dispatched build: x86-64-v4
    // on a host that runs it, so the oracle checks that build.
    const linalg::GemmSet *v4 = linalg::v4Gemm();
    ASSERT_EQ(&linalg::activeGemm(),
              v4 != nullptr ? v4 : &linalg::base::gemmKernels());
    SCOPED_TRACE(v4 != nullptr ? "products: v4 build" : "products: base build");
    const double h = 0.02;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        const RobotModel &robot = c.robot;
        const int n = robot.nv();
        const int nx = 2 * n;
        std::mt19937 rng(1234 + n);
        std::uniform_real_distribution<double> d(-1.0, 1.0);

        ctrl::RiccatiSweep sweep(robot, h);
        // Terminal-like V': SPD Hessian G·Gᵀ + I, random gradient.
        const MatrixX g = randomWithZeros(nx, nx, 1.0, rng);
        MatrixX Vxx = g * g.transpose();
        for (int i = 0; i < nx; ++i)
            Vxx(i, i) += 1.0;
        VectorX Vx(nx);
        for (int i = 0; i < nx; ++i)
            Vx[i] = d(rng);
        sweep.vx() = Vx;
        sweep.vxx() = Vxx;

        // Several knots in a row: each step's V feeds the next, as in
        // the sweep. Velocities large enough that h·ω is past the
        // Taylor guard of the right Jacobian on some knots.
        int steps_ok = 0;
        for (int knot_i = 0; knot_i < 4; ++knot_i) {
            const MatrixX fq = randomWithZeros(n, n, 20.0, rng);
            const MatrixX fqd = randomWithZeros(n, n, 5.0, rng);
            const MatrixX minv = randomWithZeros(n, n, 2.0, rng);
            VectorX qd(n), lx(nx), lu(n);
            for (int i = 0; i < n; ++i)
                qd[i] = (knot_i == 0 ? 1e-6 : 3.0) * d(rng);
            for (int i = 0; i < nx; ++i)
                lx[i] = d(rng);
            for (int i = 0; i < n; ++i)
                lu[i] = 1e-3 * d(rng);
            const ctrl::RiccatiKnot knot{fq, fqd, minv, qd, lx, lu,
                                         2.0, 0.1, 1e-4 + 1e-6};

            VectorX kff(n), kff_ref(n);
            MatrixX K(n, nx), K_ref(n, nx);
            ctrl::RiccatiTerms t, t_ref;
            const bool ok = sweep.step(knot, kff, K, t);
            const bool ok_ref =
                denseRiccatiStep(robot, h, knot, Vx, Vxx, kff_ref, K_ref,
                                 t_ref);
            SCOPED_TRACE(knot_i);
            ASSERT_EQ(ok, ok_ref);
            EXPECT_TRUE(sameBits(t.qu_max, t_ref.qu_max));
            if (!ok)
                break;
            ++steps_ok;
            EXPECT_TRUE(sameBits(t.kff_qu, t_ref.kff_qu));
            EXPECT_TRUE(sameBits(t.kff_quu_kff, t_ref.kff_quu_kff));
            EXPECT_EQ(bitMismatches(kff, kff_ref), 0);
            EXPECT_EQ(bitMismatches(K, K_ref), 0);
            EXPECT_EQ(bitMismatches(sweep.vx(), Vx), 0);
            EXPECT_EQ(bitMismatches(sweep.vxx(), Vxx), 0);
        }
        EXPECT_GE(steps_ok, 2);
    }
}

TEST(Ilqr, ReachingSolveConvergesOnSphericalJoints)
{
    const RobotModel robot = makeBallJointArm();
    ASSERT_EQ(robot.nv(), 8);
    runtime::CpuBatchedBackend backend(robot, 2);
    const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
    ctrl::IlqrSolver solver(robot, sc.problem);
    const ctrl::IlqrSummary sum = solver.solve(backend, sc.q0, sc.qd0);
    EXPECT_TRUE(sum.converged);
    EXPECT_FALSE(solver.stalled());
    EXPECT_LT(sum.cost, sum.initial_cost);
    const std::vector<double> &trace = solver.costTrace();
    ASSERT_GE(trace.size(), 2u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_LE(trace[i], trace[i - 1]);
}

// ---------------------------------------------------------------------
// Non-finite input
// ---------------------------------------------------------------------

/** Direct channel that poisons one knot's ∂q̈/∂q in every ∆FD batch. */
class NanJacobianChannel : public ctrl::DynamicsChannel
{
  public:
    NanJacobianChannel(runtime::DynamicsBackend &backend, int knot)
        : backend_(backend), knot_(knot)
    {}

    void
    run(runtime::FunctionType fn, runtime::DynamicsRequest *requests,
        std::size_t count, runtime::DynamicsResult *results) override
    {
        backend_.submit(fn, requests, count, results);
        if (fn == runtime::FunctionType::DeltaFD &&
            static_cast<std::size_t>(knot_) < count)
            results[knot_].dqdd_dq(0, 0) =
                std::numeric_limits<double>::quiet_NaN();
    }

  private:
    runtime::DynamicsBackend &backend_;
    int knot_;
};

bool
allFinite(const VectorX &v)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        if (!std::isfinite(v[i]))
            return false;
    return true;
}

TEST(Ilqr, NanJacobianEndsInExplicitOutcome)
{
    // Both Riccati paths: SmallLdlt (nv 4) and Ldlt (HyQ, nv 18).
    for (const RobotModel &robot :
         {model::makeSerialChain(4), model::makeHyq()}) {
        SCOPED_TRACE(robot.name());
        runtime::CpuBatchedBackend backend(robot, 2);
        NanJacobianChannel channel(backend, 7);
        const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
        ctrl::IlqrSolver solver(robot, sc.problem);

        solver.reset(sc.q0, sc.qd0);
        const double cost0 = solver.rolloutNominal(channel);
        ASSERT_TRUE(std::isfinite(cost0));
        EXPECT_FALSE(solver.iterate(channel));
        EXPECT_EQ(solver.cost(), cost0);
        for (int k = 0; k <= solver.knots(); ++k) {
            EXPECT_TRUE(allFinite(solver.q(k))) << "knot " << k;
            EXPECT_TRUE(allFinite(solver.qd(k))) << "knot " << k;
        }
        for (int k = 0; k < solver.knots(); ++k)
            EXPECT_TRUE(allFinite(solver.u(k))) << "knot " << k;

        solver.reset(sc.q0, sc.qd0);
        const ctrl::IlqrSummary sum = solver.solve(channel, sc.q0, sc.qd0);
        EXPECT_FALSE(sum.converged);
        EXPECT_TRUE(solver.stalled() ||
                    sum.iterations == solver.options().max_iterations);
        EXPECT_EQ(sum.cost, sum.initial_cost);
        EXPECT_EQ(solver.costTrace().size(), 1u);
    }
}

TEST(Ilqr, NanInitialStateEndsInExplicitOutcome)
{
    for (const RobotModel &robot :
         {model::makeSerialChain(4), model::makeHyq()}) {
        SCOPED_TRACE(robot.name());
        runtime::CpuBatchedBackend backend(robot, 2);
        ctrl::BackendChannel channel(backend);
        const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);
        ctrl::IlqrSolver solver(robot, sc.problem);
        VectorX qd0 = sc.qd0;
        qd0[0] = std::numeric_limits<double>::quiet_NaN();

        solver.reset(sc.q0, qd0);
        solver.rolloutNominal(channel);
        EXPECT_FALSE(solver.iterate(channel));
        // The controls are what the solver owns: a rejected iteration
        // must leave them finite even though the states are not.
        for (int k = 0; k < solver.knots(); ++k)
            EXPECT_TRUE(allFinite(solver.u(k))) << "knot " << k;

        solver.reset(sc.q0, qd0);
        const ctrl::IlqrSummary sum = solver.solve(channel, sc.q0, qd0);
        EXPECT_FALSE(sum.converged);
        EXPECT_TRUE(solver.stalled() ||
                    sum.iterations == solver.options().max_iterations);
        EXPECT_EQ(solver.costTrace().size(), 1u);
        for (int k = 0; k < solver.knots(); ++k)
            EXPECT_TRUE(allFinite(solver.u(k))) << "knot " << k;
    }
}

// ---------------------------------------------------------------------
// Receding-horizon MPC sessions
// ---------------------------------------------------------------------

TEST(MpcSession, ClosedLoopReachesTargetOnIiwa)
{
    const RobotModel robot = model::makeIiwa();
    runtime::CpuBatchedBackend backend(robot, 2);
    runtime::DynamicsServer server(backend);
    const app::ClosedLoopReport r = app::solveClosedLoop(robot, server, 50);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.ticks, 50u);
    EXPECT_GT(r.jobs, 50u); // linearize + rollout traffic per tick
    EXPECT_LT(r.tracking_err, 0.05);
    EXPECT_GT(r.ticks_per_s, 0.0);
}

TEST(MpcSession, ClosedLoopStaysBoundedOnFloatingBase)
{
    // HyQ's floating base drifts slowly under 1-iteration-per-tick
    // MPC but must stay bounded — free fall would blow past the
    // reference by ~g·t²/2 (≈ 1.8 rad-equivalents over this run).
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend backend(robot, 2);
    runtime::DynamicsServer server(backend);
    const app::ClosedLoopReport r = app::solveClosedLoop(robot, server, 60);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.tracking_err, 1.0);
}

TEST(MpcSession, ClosedLoopIdenticalAcrossBackends)
{
    const RobotModel robot = model::makeIiwa();
    accel::Accelerator accel(robot);
    runtime::CpuBatchedBackend cpu(robot, 2);
    runtime::AnalyticBackend analytic(accel);
    runtime::DynamicsServer cpu_server(cpu), analytic_server(analytic);
    const app::ClosedLoopReport a =
        app::solveClosedLoop(robot, cpu_server, 30);
    const app::ClosedLoopReport b =
        app::solveClosedLoop(robot, analytic_server, 30);
    // The whole closed loop (solver + plant) is deterministic and
    // backend-independent in its numerics.
    EXPECT_EQ(a.tracking_err, b.tracking_err);
    EXPECT_EQ(a.final_cost, b.final_cost);
    EXPECT_EQ(a.jobs, b.jobs);
}

TEST(MpcSession, PeriodicReferenceShiftRotates)
{
    const RobotModel robot = model::makeIiwa();
    ctrl::Scenario sc = ctrl::makeGaitScenario(robot, 8, 0.01);
    ASSERT_TRUE(sc.problem.periodic_ref);
    ctrl::IlqrSolver solver(robot, sc.problem);
    const int N = solver.knots();
    const VectorX first = solver.problem().q_ref[0];
    const VectorX second = solver.problem().q_ref[1];
    solver.shiftReferences();
    expectBitwiseEqual(solver.problem().q_ref[0], second);
    // Period-N rotation: the old front re-enters at knot N-1 (the
    // terminal entry mirrors the new front, keeping first == last).
    expectBitwiseEqual(solver.problem().q_ref[N - 1], first);
    expectBitwiseEqual(solver.problem().q_ref[N],
                       solver.problem().q_ref[0]);
    // N shifts return the references to their original phase, so
    // the q_ref stream stays aligned with the N-entry u_ref stream.
    for (int t = 1; t < N; ++t)
        solver.shiftReferences();
    expectBitwiseEqual(solver.problem().q_ref[0], first);
}

TEST(MpcSession, ServeClosedLoopClientsAccountsEveryTaggedJob)
{
    const RobotModel robot = model::makeIiwa();
    runtime::CpuBatchedBackend lane0(robot, 2);
    auto lane1 = lane0.clone();
    runtime::DynamicsServer server(lane0);
    server.addBackend(*lane1);
    runtime::sched::SchedConfig cfg;
    cfg.kind = runtime::sched::PolicyKind::Edf;
    cfg.coalesce = true;
    cfg.steal = true;
    server.setPolicy(cfg);

    const int clients = 3, ticks = 10;
    const app::ClosedLoopReport r =
        app::serveClosedLoopClients(robot, server, clients, ticks, 4.0);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.ticks, static_cast<std::size_t>(clients * ticks));
    EXPECT_GT(r.jobs, static_cast<std::size_t>(clients * ticks));
    // Deadline-tagged traffic flowed and every tagged job landed in
    // exactly one bucket (hit rate is well-defined and sane).
    EXPECT_GT(r.deadline_met + r.deadline_misses, 0u);
    EXPECT_GE(r.deadlineHitRate(), 0.0);
    EXPECT_LE(r.deadlineHitRate(), 1.0);
    EXPECT_GT(r.ticks_per_s, 0.0);
}

TEST(MpcSession, UntaggedServingReportsNoDeadlines)
{
    const RobotModel robot = model::makeIiwa();
    runtime::CpuBatchedBackend lane0(robot, 2);
    runtime::DynamicsServer server(lane0);
    const app::ClosedLoopReport r =
        app::serveClosedLoopClients(robot, server, 2, 5, 0.0);
    EXPECT_EQ(r.deadline_met + r.deadline_misses, 0u);
    EXPECT_EQ(r.deadlineHitRate(), 1.0);
    EXPECT_EQ(r.ticks, 10u);
}

TEST(MpcSession, ServingMakespanShrinksWithAcceleratorShards)
{
    // Four closed-loop clients on one vs two analytic accelerator
    // shards: the same traffic spreads over twice the lanes, so the
    // busiest lane's modeled busy time falls by nearly half.
    const RobotModel robot = model::makeQuadrupedArm();
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend base(accel);
    double makespan[2] = {0.0, 0.0};
    for (int s = 0; s < 2; ++s) {
        auto shard = base.clone();
        runtime::DynamicsServer server(base);
        if (s == 1)
            server.addBackend(*shard);
        const app::ClosedLoopReport r =
            app::serveClosedLoopClients(robot, server, 4, 10);
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(r.ticks, 40u);
        makespan[s] = r.makespan_us;
    }
    ASSERT_GT(makespan[1], 0.0);
    EXPECT_GT(makespan[0] / makespan[1], 1.5);
}

TEST(MpcSession, SimulatedAcceleratorDynamicsBeatCpuBackend)
{
    // Section VI-B on the real closed loop: the dynamics time of a
    // tick stream, read from the server's Service histograms, is
    // measured on the CPU backend and modeled on the cycle-accurate
    // simulator. The accelerator must take well under half of it.
    const RobotModel robot = model::makeQuadrupedArm();
    accel::Accelerator accel(robot);
    runtime::CpuBatchedBackend cpu(robot, 4);
    runtime::AcceleratorBackend sim(accel);
    runtime::sched::SchedConfig cfg;
    cfg.obs.metrics = true;
    double service_us[2] = {0.0, 0.0};
    runtime::DynamicsBackend *backends[] = {&cpu, &sim};
    for (int b = 0; b < 2; ++b) {
        runtime::DynamicsServer server(*backends[b]);
        server.setPolicy(cfg);
        const app::ClosedLoopReport r =
            app::solveClosedLoop(robot, server, 20);
        EXPECT_EQ(r.ticks, 20u);
        ASSERT_NE(server.metricsRegistry(), nullptr);
        service_us[b] = server.metricsRegistry()
                            ->mergedHistogram(false,
                                              runtime::obs::LatKind::Service)
                            .sumUs();
    }
    ASSERT_GT(service_us[1], 0.0);
    EXPECT_LT(service_us[1], 0.5 * service_us[0]);
}

} // namespace
