/**
 * @file
 * Tests for column-sparsity gating of the derivative pipeline:
 *
 *  - ColumnPlan resolution: seed validation and the dense fallbacks;
 *  - masked scalar and masked SoA sweeps are bitwise identical on
 *    all three evaluation robots;
 *  - every live column of a gated sweep is bitwise identical to the
 *    dense sweep and every dead column is exactly +0.0 (∆FD, ∆ID
 *    and ∆iFD);
 *  - gated steady-state backend submission performs zero heap
 *    allocations (counted global allocator);
 *  - an iLQR solve with gating enabled at tolerance 0 is bitwise
 *    identical to the dense solve, and gated solves still converge.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "algorithms/batched.h"
#include "algorithms/col_gating.h"
#include "algorithms/dynamics.h"
#include "algorithms/rnea_derivatives.h"
#include "algorithms/workspace.h"
#include "ctrl/ilqr.h"
#include "ctrl/scenarios.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "test_support.h"

// ---------------------------------------------------------------------
// Counted global allocator (see tests/test_batched.cc): off by
// default, switched on around the measured region only.
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

using namespace dadu::algo;
using dadu::linalg::MatrixX;
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::FunctionType;
using dadu::tests::expectBitwiseEqual;

namespace ctrl = dadu::ctrl;
namespace model = dadu::model;
namespace runtime = dadu::runtime;

RobotModel
makeRobot(const std::string &name)
{
    if (name == "iiwa")
        return model::makeIiwa();
    if (name == "hyq")
        return model::makeHyq();
    return model::makeAtlas();
}

/** A scattered seed with roughly 1/3 of the columns live. */
std::vector<int>
scatteredSeed(int nv)
{
    std::vector<int> seed;
    for (int j = 0; j < nv; j += 3)
        seed.push_back(j);
    return seed;
}

/** Columns live under @p plan match @p dense bitwise; dead columns
 *  of @p gated are exactly +0.0. */
void
expectGatedColumns(const ColumnPlan &plan, const MatrixX &gated,
                   const MatrixX &dense)
{
    ASSERT_EQ(gated.rows(), dense.rows());
    ASSERT_EQ(gated.cols(), dense.cols());
    for (std::size_t r = 0; r < gated.rows(); ++r) {
        for (std::size_t c = 0; c < gated.cols(); ++c) {
            if (plan.isLive(static_cast<int>(c)))
                EXPECT_EQ(gated(r, c), dense(r, c));
            else
                EXPECT_EQ(gated(r, c), 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// ColumnPlan resolution and validation
// ---------------------------------------------------------------------

TEST(ColumnPlan, EmptySeedAndFullCoverageResolveDense)
{
    ColumnPlan plan;
    EXPECT_TRUE(plan.dense()); // default-constructed plans are dense

    EXPECT_TRUE(plan.resolve({}, 7));
    EXPECT_TRUE(plan.dense());
    EXPECT_EQ(plan.liveCount(), 7);

    // Full coverage also resolves dense (no per-column bookkeeping).
    EXPECT_TRUE(plan.resolve({0, 1, 2, 3, 4, 5, 6}, 7));
    EXPECT_TRUE(plan.dense());
}

TEST(ColumnPlan, InvalidSeedsRejectedDeterministically)
{
    const std::vector<std::vector<int>> bad = {
        {7},        // == nv: out of range
        {-1},       // negative
        {0, 3, 3},  // duplicate
        {100, 2},   // far out of range
        {2, -2, 4}, // mixed
    };
    for (const auto &seed : bad) {
        EXPECT_FALSE(seedValid(seed, 7));
        ColumnPlan plan;
        // Rejection is deterministic and leaves the plan dense.
        EXPECT_FALSE(plan.resolve(seed, 7));
        EXPECT_TRUE(plan.dense());
        EXPECT_FALSE(plan.resolve(seed, 7));
        EXPECT_TRUE(plan.dense());
    }
    EXPECT_TRUE(seedValid({}, 7));
    EXPECT_TRUE(seedValid({6, 0, 3}, 7)); // unsorted is fine
}

TEST(ColumnPlan, ResolvesExactlyTheSeedSorted)
{
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve({5, 0, 3}, 8));
    EXPECT_FALSE(plan.dense());
    EXPECT_EQ(plan.liveCount(), 3);
    ASSERT_EQ(plan.cols().size(), 3u);
    EXPECT_EQ(plan.cols()[0], 0);
    EXPECT_EQ(plan.cols()[1], 3);
    EXPECT_EQ(plan.cols()[2], 5);
    EXPECT_TRUE(plan.isLive(0));
    EXPECT_FALSE(plan.isLive(1));
    EXPECT_TRUE(plan.isLive(3));
    EXPECT_FALSE(plan.isLive(7));
}

TEST(ColumnPlan, GatedLiveCountMatchesResolvedPlan)
{
    std::mt19937 rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        const int nv = 1 + static_cast<int>(rng() % 36);
        std::vector<int> seed;
        for (int j = 0; j < nv; ++j)
            if (rng() % 3 == 0)
                seed.push_back(j);
        std::shuffle(seed.begin(), seed.end(), rng);
        ColumnPlan plan;
        ASSERT_TRUE(plan.resolve(seed, nv));
        EXPECT_EQ(gatedLiveCount(seed, nv), plan.liveCount())
            << "nv=" << nv;
    }
}

// ---------------------------------------------------------------------
// Masked sweep parity across robots
// ---------------------------------------------------------------------

struct Batch
{
    std::vector<VectorX> q, qd, tau;
};

Batch
randomBatch(const RobotModel &robot, int n, unsigned seed)
{
    std::mt19937 rng(seed);
    Batch b;
    for (int i = 0; i < n; ++i) {
        b.q.push_back(robot.randomConfiguration(rng));
        b.qd.push_back(robot.randomVelocity(rng));
        b.tau.push_back(robot.randomVelocity(rng));
    }
    return b;
}

class SparsityTest : public ::testing::TestWithParam<const char *>
{
  protected:
    RobotModel robot() const { return makeRobot(GetParam()); }
};

TEST_P(SparsityTest, MaskedSoaMatchesMaskedScalarBitwise)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 13, 71); // ragged remainder
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve(scatteredSeed(robot.nv()), robot.nv()));
    ASSERT_FALSE(plan.dense());

    BatchedDynamics engine(robot, 2);
    engine.setLaneWidth(1); // pure scalar path
    std::vector<FdDerivatives> scalar =
        engine.batchFdDerivatives(in.q, in.qd, in.tau, &plan);
    engine.setLaneWidth(8); // SoA packs + scalar remainder
    const std::vector<FdDerivatives> &soa =
        engine.batchFdDerivatives(in.q, in.qd, in.tau, &plan);

    for (int i = 0; i < 13; ++i) {
        expectBitwiseEqual(soa[i].qdd, scalar[i].qdd);
        expectBitwiseEqual(soa[i].minv, scalar[i].minv);
        expectBitwiseEqual(soa[i].dqdd_dq, scalar[i].dqdd_dq);
        expectBitwiseEqual(soa[i].dqdd_dqd, scalar[i].dqdd_dqd);
    }
}

TEST_P(SparsityTest, GivenAccelSoaMatchesMaskedScalarBitwise)
{
    // The batched ∆iFD path (q̈/M⁻¹ supplied, steps ④⑤⑥ only) is
    // bitwise lane-width invariant — SoA packs vs the pure scalar
    // fdDerivativesGivenAccel, under the same shared mask.
    const RobotModel robot = this->robot();
    const int nv = robot.nv();
    const Batch in = randomBatch(robot, 13, 72); // ragged remainder
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve(scatteredSeed(nv), nv));
    ASSERT_FALSE(plan.dense());

    BatchedDynamics engine(robot, 2);
    // Bank q̈/M⁻¹ from a dense ∆FD pass — the client's usage shape
    // (copies: the engine's output array is reused across calls).
    std::vector<VectorX> qdd;
    std::vector<MatrixX> minv;
    {
        const auto &fd = engine.batchFdDerivatives(in.q, in.qd, in.tau);
        for (int i = 0; i < 13; ++i) {
            qdd.push_back(fd[i].qdd);
            minv.push_back(fd[i].minv);
        }
    }
    std::vector<const MatrixX *> minv_ptrs;
    for (int i = 0; i < 13; ++i)
        minv_ptrs.push_back(&minv[i]);

    engine.setLaneWidth(1); // pure scalar path
    const std::vector<FdDerivatives> scalar =
        engine.batchFdDerivativesGivenAccel(in.q.data(), in.qd.data(),
                                            qdd.data(), minv_ptrs.data(),
                                            13, &plan);
    engine.setLaneWidth(8); // SoA packs + scalar remainder
    const std::vector<FdDerivatives> &soa =
        engine.batchFdDerivativesGivenAccel(in.q.data(), in.qd.data(),
                                            qdd.data(), minv_ptrs.data(),
                                            13, &plan);

    for (int i = 0; i < 13; ++i) {
        expectBitwiseEqual(soa[i].qdd, scalar[i].qdd);
        expectBitwiseEqual(soa[i].minv, scalar[i].minv);
        expectBitwiseEqual(soa[i].dqdd_dq, scalar[i].dqdd_dq);
        expectBitwiseEqual(soa[i].dqdd_dqd, scalar[i].dqdd_dqd);
    }
}

TEST_P(SparsityTest, GatedGivenAccelBackendMatchesDenseSubset)
{
    // End-to-end ∆iFD through CpuBatchedBackend: with q̈/M⁻¹ from a
    // dense ∆FD batch as inputs, the gated engine path (mask-uniform)
    // and the mixed-mask reference fallback both agree with the dense
    // ∆iFD batch on live columns and zero dead ones.
    const RobotModel robot = this->robot();
    const int nv = robot.nv();
    runtime::CpuBatchedBackend backend(robot, 2);

    auto reqs = dadu::tests::randomRequests(robot, 10, 34);
    std::vector<DynamicsResult> fd(10), dense(10), gated(10);
    ASSERT_EQ(backend.submit(FunctionType::DeltaFD, reqs.data(), 10,
                             fd.data()),
              runtime::SubmitStatus::Ok);
    for (int i = 0; i < 10; ++i) {
        reqs[i].qdd_or_tau = fd[i].qdd;
        reqs[i].minv = fd[i].minv;
    }

    ASSERT_EQ(backend.submit(FunctionType::DeltaiFD, reqs.data(), 10,
                             dense.data()),
              runtime::SubmitStatus::Ok);
    // ∆iFD reuses ∆FD's inputs bitwise, so its derivative columns
    // equal the dense ∆FD batch's exactly.
    for (int i = 0; i < 10; ++i) {
        expectBitwiseEqual(dense[i].dqdd_dq, fd[i].dqdd_dq);
        expectBitwiseEqual(dense[i].dqdd_dqd, fd[i].dqdd_dqd);
    }

    // Mask-uniform batch (the gated iLQR refresh shape).
    for (auto &r : reqs) {
        r.seed_cols = scatteredSeed(nv);
    }
    ASSERT_EQ(backend.submit(FunctionType::DeltaiFD, reqs.data(), 10,
                             gated.data()),
              runtime::SubmitStatus::Ok);
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve(scatteredSeed(nv), nv));
    for (int i = 0; i < 10; ++i) {
        expectBitwiseEqual(gated[i].qdd, dense[i].qdd);
        expectGatedColumns(plan, gated[i].dqdd_dq, dense[i].dqdd_dq);
        expectGatedColumns(plan, gated[i].dqdd_dqd, dense[i].dqdd_dqd);
    }

    // Mixed masks: request i keeps only column i % nv (reference
    // fallback path).
    std::vector<ColumnPlan> plans(10);
    for (int i = 0; i < 10; ++i) {
        reqs[i].seed_cols = {i % nv};
        ASSERT_TRUE(plans[i].resolve(reqs[i].seed_cols, nv));
    }
    ASSERT_EQ(backend.submit(FunctionType::DeltaiFD, reqs.data(), 10,
                             gated.data()),
              runtime::SubmitStatus::Ok);
    for (int i = 0; i < 10; ++i) {
        expectGatedColumns(plans[i], gated[i].dqdd_dq, dense[i].dqdd_dq);
        expectGatedColumns(plans[i], gated[i].dqdd_dqd,
                           dense[i].dqdd_dqd);
    }
}

TEST_P(SparsityTest, MaskedMatchesDenseOnLiveColumnsDeadExactlyZero)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 4, 5);
    DynamicsWorkspace ws(robot);
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve(scatteredSeed(robot.nv()), robot.nv()));

    FdDerivatives dense_fd, gated_fd;
    RneaDerivatives dense_id, gated_id;
    for (int i = 0; i < 4; ++i) {
        // ∆FD: steps ①②③ (q̈, M⁻¹) stay dense regardless of gating.
        fdDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i], dense_fd);
        fdDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i], gated_fd,
                      nullptr, &plan);
        expectBitwiseEqual(gated_fd.qdd, dense_fd.qdd);
        expectBitwiseEqual(gated_fd.minv, dense_fd.minv);
        expectGatedColumns(plan, gated_fd.dqdd_dq, dense_fd.dqdd_dq);
        expectGatedColumns(plan, gated_fd.dqdd_dqd, dense_fd.dqdd_dqd);

        // ∆ID.
        rneaDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i],
                        dense_id);
        rneaDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i],
                        gated_id, nullptr, false, &plan);
        expectGatedColumns(plan, gated_id.dtau_dq, dense_id.dtau_dq);
        expectGatedColumns(plan, gated_id.dtau_dqd, dense_id.dtau_dqd);

        // ∆iFD: q̈ and M⁻¹ supplied from the dense ∆FD.
        fdDerivativesGivenAccel(robot, ws, in.q[i], in.qd[i],
                                dense_fd.qdd, dense_fd.minv, gated_fd,
                                nullptr, &plan);
        expectGatedColumns(plan, gated_fd.dqdd_dq, dense_fd.dqdd_dq);
        expectGatedColumns(plan, gated_fd.dqdd_dqd, dense_fd.dqdd_dqd);
    }
}

TEST_P(SparsityTest, GatedBackendSubmitMatchesDenseSubset)
{
    // End-to-end through CpuBatchedBackend: a gated ∆FD batch agrees
    // with the dense batch on live columns and zeroes dead ones —
    // including the mask-uniform SoA fast path (shared seed) and the
    // mixed-mask reference fallback (per-request seeds).
    const RobotModel robot = this->robot();
    const int nv = robot.nv();
    runtime::CpuBatchedBackend backend(robot, 2);

    auto reqs = dadu::tests::randomRequests(robot, 10, 33);
    std::vector<DynamicsResult> dense(10), gated(10);
    ASSERT_EQ(backend.submit(FunctionType::DeltaFD, reqs.data(), 10,
                             dense.data()),
              runtime::SubmitStatus::Ok);

    // Mask-uniform batch (the iLQR shape).
    for (auto &r : reqs) {
        r.seed_cols = scatteredSeed(nv);
    }
    ASSERT_EQ(backend.submit(FunctionType::DeltaFD, reqs.data(), 10,
                             gated.data()),
              runtime::SubmitStatus::Ok);
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve(scatteredSeed(nv), nv));
    for (int i = 0; i < 10; ++i) {
        expectBitwiseEqual(gated[i].qdd, dense[i].qdd);
        expectGatedColumns(plan, gated[i].dqdd_dq, dense[i].dqdd_dq);
        expectGatedColumns(plan, gated[i].dqdd_dqd, dense[i].dqdd_dqd);
    }

    // Mixed masks: request i keeps only column i % nv.
    std::vector<ColumnPlan> plans(10);
    for (int i = 0; i < 10; ++i) {
        reqs[i].seed_cols = {i % nv};
        ASSERT_TRUE(plans[i].resolve(reqs[i].seed_cols, nv));
    }
    ASSERT_EQ(backend.submit(FunctionType::DeltaFD, reqs.data(), 10,
                             gated.data()),
              runtime::SubmitStatus::Ok);
    for (int i = 0; i < 10; ++i) {
        expectBitwiseEqual(gated[i].qdd, dense[i].qdd);
        expectGatedColumns(plans[i], gated[i].dqdd_dq, dense[i].dqdd_dq);
        expectGatedColumns(plans[i], gated[i].dqdd_dqd,
                           dense[i].dqdd_dqd);
    }
}

INSTANTIATE_TEST_SUITE_P(EvalRobots, SparsityTest,
                         ::testing::Values("iiwa", "hyq", "atlas"));

// ---------------------------------------------------------------------
// Zero steady-state allocations with masks
// ---------------------------------------------------------------------

TEST(Sparsity, GatedBackendSubmitSteadyStateAllocationFree)
{
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend backend(robot, 2);

    auto reqs = dadu::tests::randomRequests(robot, 8, 9);
    for (auto &r : reqs)
        r.seed_cols = scatteredSeed(robot.nv());
    std::vector<DynamicsResult> results(8);

    // Warm-up sizes the staging vectors, result storage and the
    // backend's resolved plan (grow-only internals).
    ASSERT_EQ(backend.submit(FunctionType::DeltaFD, reqs.data(), 8,
                             results.data()),
              runtime::SubmitStatus::Ok);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    const runtime::SubmitStatus status = backend.submit(
        FunctionType::DeltaFD, reqs.data(), 8, results.data());
    g_count_allocs.store(false);
    EXPECT_EQ(status, runtime::SubmitStatus::Ok);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "gated steady-state submission allocated";

    // Same contract for the gated ∆iFD refresh path (q̈/M⁻¹ inputs
    // staged as pointers — no per-point matrix copies).
    for (int i = 0; i < 8; ++i) {
        reqs[i].qdd_or_tau = results[i].qdd;
        reqs[i].minv = results[i].minv;
    }
    ASSERT_EQ(backend.submit(FunctionType::DeltaiFD, reqs.data(), 8,
                             results.data()),
              runtime::SubmitStatus::Ok);
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    const runtime::SubmitStatus difd_status = backend.submit(
        FunctionType::DeltaiFD, reqs.data(), 8, results.data());
    g_count_allocs.store(false);
    EXPECT_EQ(difd_status, runtime::SubmitStatus::Ok);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "gated steady-state ∆iFD submission allocated";
}

// ---------------------------------------------------------------------
// Gated iLQR client
// ---------------------------------------------------------------------

TEST(Sparsity, GatedIlqrWithZeroToleranceBitwiseEqualsDense)
{
    // gating_tol = 0 keeps every column's drift at/above threshold,
    // so every gated linearization degrades to dense and the whole
    // solve — iterates, costs, trajectories — is bitwise identical.
    for (auto make : {model::makeIiwa, model::makeHyq}) {
        const RobotModel robot = make();
        runtime::CpuBatchedBackend backend(robot, 2);
        const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);

        ctrl::IlqrSolver dense(robot, sc.problem);
        ctrl::IlqrOptions gated_opts;
        gated_opts.gating = true;
        gated_opts.gating_tol = 0.0;
        ctrl::IlqrSolver gated(robot, sc.problem, gated_opts);

        const ctrl::IlqrSummary a = dense.solve(backend, sc.q0, sc.qd0);
        const ctrl::IlqrSummary b = gated.solve(backend, sc.q0, sc.qd0);

        SCOPED_TRACE(robot.name());
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.grad_norm, b.grad_norm);
        for (int k = 0; k <= dense.knots(); ++k) {
            expectBitwiseEqual(dense.q(k), gated.q(k));
            expectBitwiseEqual(dense.qd(k), gated.qd(k));
        }
        for (int k = 0; k < dense.knots(); ++k)
            expectBitwiseEqual(dense.u(k), gated.u(k));
    }
}

TEST(Sparsity, GatedIlqrConvergesOnAllRobots)
{
    // With a real tolerance the gated solver reuses cached columns;
    // the line search still guards every accepted step, so solves
    // must converge with a cost no worse than the dense baseline's
    // acceptance criteria.
    for (auto make : {model::makeIiwa, model::makeHyq, model::makeAtlas}) {
        const RobotModel robot = make();
        runtime::CpuBatchedBackend backend(robot, 2);
        const ctrl::Scenario sc = ctrl::makeReachingScenario(robot);

        ctrl::IlqrOptions opts;
        opts.gating = true;
        opts.gating_tol = 1e-4;
        opts.dense_refresh_every = 8;
        ctrl::IlqrSolver solver(robot, sc.problem, opts);
        const ctrl::IlqrSummary sum = solver.solve(backend, sc.q0, sc.qd0);

        SCOPED_TRACE(robot.name());
        EXPECT_TRUE(sum.converged);
        EXPECT_LT(sum.cost, sum.initial_cost);
        const std::vector<double> &trace = solver.costTrace();
        for (std::size_t i = 1; i < trace.size(); ++i)
            EXPECT_LE(trace[i], trace[i - 1]);
    }
}

} // namespace
