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
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>

#include "app/closed_loop.h"
#include "ctrl/ilqr.h"
#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "model/builders.h"
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
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::tests::expectBitwiseEqual;

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
