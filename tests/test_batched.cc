/**
 * @file
 * Tests for the workspace/batched dynamics engine:
 *
 *  - batched results match the single-point reference bitwise for a
 *    quadruped (HyQ) and a humanoid (Atlas);
 *  - a reused workspace produces identical results across repeated
 *    calls with different inputs;
 *  - a counted global allocator shows zero heap allocations in the
 *    steady-state hot loop, both for the single-thread workspace
 *    path and for a whole batched dispatch;
 *  - every ragged remainder r ∈ 1..W−1 at W ∈ {4, 8, 16} — one
 *    masked pack for r ≥ 2, the scalar kernel for r = 1 — matches the
 *    scalar engine bitwise for ∆FD, ∆iFD, FD and ∆ID, dense and gated;
 *  - CpuBatchedBackend runs ID, M and ∆ID on the engine, bitwise
 *    equal to the scalar kernels, gated ∆ID included; external
 *    forces and mixed column masks fall back to the per-point
 *    reference kernels and still match.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <vector>

#include "algorithms/aba.h"
#include "algorithms/batched.h"
#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/finite_diff.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/workspace.h"
#include "linalg/factorize.h"
#include "algorithms/rnea_derivatives.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "test_support.h"

// ---------------------------------------------------------------------
// Counted global allocator. Counting is off by default so the test
// harness itself is unaffected; the zero-allocation tests switch it
// on around the measured region only.
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
using dadu::model::makeAtlas;
using dadu::model::makeHyq;
using dadu::model::RobotModel;

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

using dadu::tests::expectBitwiseEqual;

class BatchedTest : public ::testing::TestWithParam<const char *>
{
  protected:
    RobotModel
    robot() const
    {
        return std::string(GetParam()) == "hyq" ? makeHyq() : makeAtlas();
    }
};

TEST_P(BatchedTest, ForwardDynamicsMatchesSinglePointBitwise)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 24, 42);
    BatchedDynamics engine(robot, 4);
    const auto &batch = engine.batchForwardDynamics(in.q, in.qd, in.tau);

    DynamicsWorkspace ws(robot);
    VectorX qdd;
    for (int i = 0; i < 24; ++i) {
        forwardDynamics(robot, ws, in.q[i], in.qd[i], in.tau[i], qdd);
        expectBitwiseEqual(batch[i], qdd);
    }
}

TEST_P(BatchedTest, FdDerivativesMatchSinglePointBitwise)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 16, 7);
    BatchedDynamics engine(robot, 3);
    const auto &batch = engine.batchFdDerivatives(in.q, in.qd, in.tau);

    DynamicsWorkspace ws(robot);
    FdDerivatives single;
    for (int i = 0; i < 16; ++i) {
        fdDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i], single);
        expectBitwiseEqual(batch[i].qdd, single.qdd);
        expectBitwiseEqual(batch[i].minv, single.minv);
        expectBitwiseEqual(batch[i].dqdd_dq, single.dqdd_dq);
        expectBitwiseEqual(batch[i].dqdd_dqd, single.dqdd_dqd);
    }
}

TEST_P(BatchedTest, MinvMatchesSinglePointBitwise)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 12, 99);
    BatchedDynamics engine(robot, 4);
    const auto &batch = engine.batchMinv(in.q);

    DynamicsWorkspace ws(robot);
    MatrixX minv;
    for (int i = 0; i < 12; ++i) {
        massMatrixInverse(robot, ws, in.q[i], minv);
        expectBitwiseEqual(batch[i], minv);
    }
}

TEST_P(BatchedTest, AllocatingWrappersMatchWorkspaceOverloads)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 4, 3);
    DynamicsWorkspace ws(robot);
    VectorX qdd;
    FdDerivatives fd;
    for (int i = 0; i < 4; ++i) {
        aba(robot, ws, in.q[i], in.qd[i], in.tau[i], qdd);
        expectBitwiseEqual(aba(robot, in.q[i], in.qd[i], in.tau[i]), qdd);
        fdDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i], fd);
        const FdDerivatives ref =
            fdDerivatives(robot, in.q[i], in.qd[i], in.tau[i]);
        expectBitwiseEqual(ref.qdd, fd.qdd);
        expectBitwiseEqual(ref.dqdd_dq, fd.dqdd_dq);
    }
}

TEST_P(BatchedTest, ReusedWorkspaceIsDeterministicAcrossInputs)
{
    // Evaluate A, then B (different input), then A again with the
    // same workspace: the second A result must be bitwise identical
    // to the first — no state may leak between calls.
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 2, 1234);
    DynamicsWorkspace ws(robot);

    FdDerivatives first_a, b, second_a;
    fdDerivatives(robot, ws, in.q[0], in.qd[0], in.tau[0], first_a);
    // Copy: the next calls overwrite the output struct.
    const MatrixX dq_a = first_a.dqdd_dq;
    const MatrixX dqd_a = first_a.dqdd_dqd;
    const VectorX qdd_a = first_a.qdd;

    fdDerivatives(robot, ws, in.q[1], in.qd[1], in.tau[1], b);
    fdDerivatives(robot, ws, in.q[0], in.qd[0], in.tau[0], second_a);

    expectBitwiseEqual(qdd_a, second_a.qdd);
    expectBitwiseEqual(dq_a, second_a.dqdd_dq);
    expectBitwiseEqual(dqd_a, second_a.dqdd_dqd);

    // Same for ABA and the finite-difference helpers.
    VectorX aba_a, aba_b, aba_a2;
    aba(robot, ws, in.q[0], in.qd[0], in.tau[0], aba_a);
    const VectorX aba_a_copy = aba_a;
    aba(robot, ws, in.q[1], in.qd[1], in.tau[1], aba_b);
    aba(robot, ws, in.q[0], in.qd[0], in.tau[0], aba_a2);
    expectBitwiseEqual(aba_a_copy, aba_a2);

    MatrixX j_a, j_b, j_a2;
    numericalDqddDq(robot, ws, in.q[0], in.qd[0], in.tau[0], j_a);
    const MatrixX j_a_copy = j_a;
    numericalDqddDq(robot, ws, in.q[1], in.qd[1], in.tau[1], j_b);
    numericalDqddDq(robot, ws, in.q[0], in.qd[0], in.tau[0], j_a2);
    expectBitwiseEqual(j_a_copy, j_a2);
}

TEST_P(BatchedTest, WorkspaceHotLoopIsAllocationFree)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 8, 5);
    DynamicsWorkspace ws(robot);
    VectorX qdd;
    FdDerivatives fd;
    RneaResult rnea_res;
    MatrixX m;

    // Warm up: first calls size every output buffer.
    for (int i = 0; i < 8; ++i) {
        fdDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i], fd);
        aba(robot, ws, in.q[i], in.qd[i], in.tau[i], qdd);
        rnea(robot, ws, in.q[i], in.qd[i], in.tau[i], rnea_res);
        crba(robot, ws, in.q[i], m);
        massMatrixInverse(robot, ws, in.q[i], m);
    }

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int rep = 0; rep < 3; ++rep) {
        for (int i = 0; i < 8; ++i) {
            fdDerivatives(robot, ws, in.q[i], in.qd[i], in.tau[i], fd);
            aba(robot, ws, in.q[i], in.qd[i], in.tau[i], qdd);
            rnea(robot, ws, in.q[i], in.qd[i], in.tau[i], rnea_res);
            crba(robot, ws, in.q[i], m);
            massMatrixInverse(robot, ws, in.q[i], m);
        }
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state workspace loop allocated";
}

TEST_P(BatchedTest, BatchedSteadyStateIsAllocationFree)
{
    const RobotModel robot = this->robot();
    const Batch in = randomBatch(robot, 32, 77);
    BatchedDynamics engine(robot, 4);

    // Warm up: sizes the engine outputs and every chunk workspace.
    engine.batchFdDerivatives(in.q, in.qd, in.tau);
    engine.batchForwardDynamics(in.q, in.qd, in.tau);
    engine.batchMinv(in.q);

    // Steady state: the whole dispatch — runIndexed fan-out across
    // the pool included — must stay off the heap.
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int rep = 0; rep < 3; ++rep) {
        engine.batchFdDerivatives(in.q, in.qd, in.tau);
        engine.batchForwardDynamics(in.q, in.qd, in.tau);
        engine.batchMinv(in.q);
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state batched dispatch allocated";
}

INSTANTIATE_TEST_SUITE_P(Robots, BatchedTest,
                         ::testing::Values("hyq", "atlas"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(BatchedEngine, GrowAndShrinkBatches)
{
    // Batch size may change between calls; results stay correct.
    const RobotModel robot = makeHyq();
    BatchedDynamics engine(robot, 4);
    DynamicsWorkspace ws(robot);
    VectorX qdd;
    for (int n : {5, 17, 3, 32}) {
        const Batch in = randomBatch(robot, n, 50 + n);
        const auto &batch =
            engine.batchForwardDynamics(in.q, in.qd, in.tau);
        for (int i = 0; i < n; ++i) {
            forwardDynamics(robot, ws, in.q[i], in.qd[i], in.tau[i], qdd);
            for (std::size_t k = 0; k < qdd.size(); ++k)
                EXPECT_EQ(batch[i][k], qdd[k]);
        }
    }
}

TEST(BatchedEngine, SingleThreadEngineRunsInline)
{
    // threads = 1 spawns no pool workers; everything runs on the
    // calling thread and still matches the reference.
    const RobotModel robot = makeHyq();
    BatchedDynamics engine(robot, 1);
    EXPECT_EQ(engine.workspaceCount(), 1);
    const Batch in = randomBatch(robot, 6, 9);
    const auto &batch = engine.batchForwardDynamics(in.q, in.qd, in.tau);
    DynamicsWorkspace ws(robot);
    VectorX qdd;
    for (int i = 0; i < 6; ++i) {
        forwardDynamics(robot, ws, in.q[i], in.qd[i], in.tau[i], qdd);
        for (std::size_t k = 0; k < qdd.size(); ++k)
            EXPECT_EQ(batch[i][k], qdd[k]);
    }
}

// ---------------------------------------------------------------------
// Bit-exact comparison (EXPECT_EQ would pass -0.0 against +0.0).
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectSameBits(const VectorX &a, const VectorX &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameBits(a[i], b[i])) << what << " entry " << i;
}

void
expectSameBits(const MatrixX &a, const MatrixX &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            EXPECT_TRUE(sameBits(a(r, c), b(r, c)))
                << what << " (" << r << ", " << c << ")";
}

// ---------------------------------------------------------------------
// Ragged remainders: a batch of W + r points runs one full pack and a
// remainder of r, which goes through one masked pack at the narrowest
// width that holds it (r ≥ 2) or the scalar kernel (r = 1). Both must
// equal the scalar engine bit for bit.
// ---------------------------------------------------------------------

/** Every output field a batch can write, per point. */
struct PointOut
{
    VectorX tau, qdd;
    MatrixX minv, d_dq, d_dqd;
};

BatchedDynamics::Outputs
outputsOf(std::vector<PointOut> &o)
{
    BatchedDynamics::Outputs out;
    out.tau = {o.data(), &PointOut::tau};
    out.qdd = {o.data(), &PointOut::qdd};
    out.minv = {o.data(), &PointOut::minv};
    out.d_dq = {o.data(), &PointOut::d_dq};
    out.d_dqd = {o.data(), &PointOut::d_dqd};
    return out;
}

TEST(BatchedRemainder, EveryRemainderMatchesScalarBitwise)
{
    using F = BatchedDynamics::Function;
    const struct
    {
        const char *name;
        F fn;
        bool gates;
    } fns[] = {{"dFD", F::DeltaFd, true},
               {"diFD", F::DeltaiFd, true},
               {"FD", F::Fd, false},
               {"dID", F::DeltaId, true}};
    for (const auto make : {dadu::model::makeIiwa, makeHyq, makeAtlas}) {
        const RobotModel robot = make();
        const int nv = robot.nv();
        // Enough points for the widest batch, W = 16 plus r = 15.
        const int kMaxN = 31;
        const Batch in = randomBatch(robot, kMaxN, 211);
        std::vector<MatrixX> minv(kMaxN);
        DynamicsWorkspace ws(robot);
        for (int i = 0; i < kMaxN; ++i)
            massMatrixInverse(robot, ws, in.q[i], minv[i]);
        const BatchedDynamics::Inputs inputs{in.q.data(), in.qd.data(),
                                             in.tau.data(), minv.data()};
        ColumnPlan gated;
        ASSERT_TRUE(gated.resolve({1, nv - 2}, nv));

        BatchedDynamics scalar(robot, 1), packed(robot, 1);
        scalar.setLaneWidth(1);
        for (const auto &f : fns) {
            for (const ColumnPlan *plan :
                 {(const ColumnPlan *)nullptr, (const ColumnPlan *)&gated}) {
                if (plan && !f.gates)
                    continue;
                for (int w : {4, 8, 16}) {
                    packed.setLaneWidth(w);
                    for (int r = 1; r < w; ++r) {
                        SCOPED_TRACE(testing::Message()
                                     << nv << "-DOF " << f.name
                                     << (plan ? " gated" : " dense")
                                     << " W=" << w << " r=" << r);
                        const int n = w + r;
                        std::vector<PointOut> want(n), got(n);
                        scalar.evaluate(f.fn, inputs, n, outputsOf(want),
                                        plan);
                        const std::uint64_t before = packed.packedPoints();
                        packed.evaluate(f.fn, inputs, n, outputsOf(got),
                                        plan);
                        EXPECT_EQ(packed.packedPoints() - before,
                                  static_cast<std::uint64_t>(
                                      r >= 2 ? n : w));
                        for (int i = 0; i < n; ++i) {
                            SCOPED_TRACE(testing::Message() << "point " << i);
                            expectSameBits(want[i].tau, got[i].tau, "tau");
                            expectSameBits(want[i].qdd, got[i].qdd, "qdd");
                            expectSameBits(want[i].minv, got[i].minv,
                                           "minv");
                            expectSameBits(want[i].d_dq, got[i].d_dq,
                                           "d_dq");
                            expectSameBits(want[i].d_dqd, got[i].d_dqd,
                                           "d_dqd");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CpuBatchedBackend: ID, M and ∆ID on the engine, and the fallback.
// ---------------------------------------------------------------------

using dadu::runtime::CpuBatchedBackend;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::FunctionType;

/** The scalar kernels of ID, M and ∆ID on one request. */
DynamicsResult
scalarIdMDid(const RobotModel &robot, DynamicsWorkspace &ws,
             FunctionType fn, const DynamicsRequest &r)
{
    DynamicsResult out;
    const auto *fext = r.fext.empty() ? nullptr : &r.fext;
    ColumnPlan plan;
    const ColumnPlan *gate = nullptr;
    if (!r.seed_cols.empty() && plan.resolve(r.seed_cols, robot.nv()))
        gate = &plan;
    RneaResult rr;
    switch (fn) {
      case FunctionType::ID:
        rnea(robot, ws, r.q, r.qd, r.qdd_or_tau, rr, fext);
        out.tau = rr.tau;
        break;
      case FunctionType::M:
        crba(robot, ws, r.q, out.m);
        break;
      default: {
        rnea(robot, ws, r.q, r.qd, r.qdd_or_tau, rr, fext);
        out.tau = rr.tau;
        RneaDerivatives did;
        rneaDerivatives(robot, ws, r.q, r.qd, r.qdd_or_tau, did, fext,
                        false, gate);
        out.dtau_dq = did.dtau_dq;
        out.dtau_dqd = did.dtau_dqd;
        break;
      }
    }
    return out;
}

void
expectMatchesScalar(const RobotModel &robot,
                    const std::vector<DynamicsRequest> &reqs,
                    const std::vector<DynamicsResult> &got, FunctionType fn)
{
    DynamicsWorkspace ws(robot);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "point " << i);
        const DynamicsResult want = scalarIdMDid(robot, ws, fn, reqs[i]);
        if (fn == FunctionType::M) {
            expectSameBits(want.m, got[i].m, "M");
            continue;
        }
        expectSameBits(want.tau, got[i].tau, "tau");
        if (fn == FunctionType::DeltaID) {
            expectSameBits(want.dtau_dq, got[i].dtau_dq, "dtau_dq");
            expectSameBits(want.dtau_dqd, got[i].dtau_dqd, "dtau_dqd");
        }
    }
}

TEST(CpuBackendEngine, IdMDeltaIdMatchScalarBitwise)
{
    for (const auto make : {makeHyq, makeAtlas, dadu::model::makeIiwa}) {
        const RobotModel robot = make();
        CpuBatchedBackend backend(robot, 2);
        backend.engine().setLaneWidth(8);
        for (int n : {1, 7, 20, 256}) {
            const auto reqs = dadu::tests::randomRequests(robot, n, 60 + n);
            for (FunctionType fn :
                 {FunctionType::ID, FunctionType::M, FunctionType::DeltaID}) {
                SCOPED_TRACE(testing::Message()
                             << robot.nv() << "-DOF n=" << n << " "
                             << dadu::runtime::functionName(fn));
                std::vector<DynamicsResult> got(n);
                const std::uint64_t packed = backend.engine().packedPoints();
                ASSERT_EQ(backend.submit(fn, reqs.data(), n, got.data()),
                          dadu::runtime::SubmitStatus::Ok);
                // Two chunks of n/2 and n - n/2 points: a chunk of two
                // or more runs wholly in packs (its remainder masked),
                // a one-point chunk scalar — the engine ran the batch.
                const auto packs = [](int c) { return c >= 2 ? c : 0; };
                const std::uint64_t want_packed =
                    packs(n / 2) + packs(n - n / 2);
                EXPECT_EQ(backend.engine().packedPoints() - packed,
                          want_packed);
                expectMatchesScalar(robot, reqs, got, fn);
            }
        }
    }
}

TEST(CpuBackendEngine, UniformGatedDeltaIdRunsOnEngine)
{
    const RobotModel robot = makeHyq();
    CpuBatchedBackend backend(robot, 1);
    backend.engine().setLaneWidth(8);
    const int n = 20;
    auto reqs = dadu::tests::randomRequests(robot, n, 71);
    const std::vector<int> seed = {1, 5, 9, 16};
    for (auto &r : reqs)
        r.seed_cols = seed;
    std::vector<DynamicsResult> got(n);
    const std::uint64_t packed = backend.engine().packedPoints();
    ASSERT_EQ(backend.submit(FunctionType::DeltaID, reqs.data(), n,
                             got.data()),
              dadu::runtime::SubmitStatus::Ok);
    EXPECT_EQ(backend.engine().packedPoints() - packed, 20u)
        << "two packs: 8 points, then the 4-point remainder at W = 4";
    expectMatchesScalar(robot, reqs, got, FunctionType::DeltaID);

    // Dead columns are exactly +0.0; live ones carry the dense values.
    ColumnPlan plan;
    ASSERT_TRUE(plan.resolve(seed, robot.nv()));
    DynamicsWorkspace ws(robot);
    RneaDerivatives dense;
    for (int i = 0; i < n; ++i) {
        rneaDerivatives(robot, ws, reqs[i].q, reqs[i].qd, reqs[i].qdd_or_tau,
                        dense);
        for (int r = 0; r < robot.nv(); ++r)
            for (int c = 0; c < robot.nv(); ++c) {
                const bool live = plan.isLive(c);
                EXPECT_TRUE(sameBits(got[i].dtau_dq(r, c),
                                     live ? dense.dtau_dq(r, c) : 0.0));
                EXPECT_TRUE(sameBits(got[i].dtau_dqd(r, c),
                                     live ? dense.dtau_dqd(r, c) : 0.0));
            }
    }
}

TEST(CpuBackendEngine, MixedMasksAndExternalForcesFallBack)
{
    const RobotModel robot = makeHyq();
    CpuBatchedBackend backend(robot, 2);
    backend.engine().setLaneWidth(8);
    const int n = 20;

    // Mixed seeds: the packs share one plan, so the batch runs point by
    // point through the reference kernels.
    auto mixed = dadu::tests::randomRequests(robot, n, 73);
    for (int i = 0; i < n; ++i)
        mixed[i].seed_cols = i % 2 ? std::vector<int>{2, 7}
                                   : std::vector<int>{3};
    std::vector<DynamicsResult> got(n);
    std::uint64_t packed = backend.engine().packedPoints();
    ASSERT_EQ(backend.submit(FunctionType::DeltaID, mixed.data(), n,
                             got.data()),
              dadu::runtime::SubmitStatus::Ok);
    EXPECT_EQ(backend.engine().packedPoints(), packed);
    expectMatchesScalar(robot, mixed, got, FunctionType::DeltaID);

    // External forces: the packs take none.
    auto forced = dadu::tests::randomRequests(robot, n, 79);
    std::mt19937 rng(83);
    std::uniform_real_distribution<double> d(-5.0, 5.0);
    for (auto &r : forced) {
        r.fext.resize(static_cast<std::size_t>(robot.nb()));
        for (auto &f : r.fext)
            for (int k = 0; k < 6; ++k)
                f[k] = d(rng);
    }
    for (FunctionType fn : {FunctionType::ID, FunctionType::DeltaID}) {
        SCOPED_TRACE(dadu::runtime::functionName(fn));
        packed = backend.engine().packedPoints();
        ASSERT_EQ(backend.submit(fn, forced.data(), n, got.data()),
                  dadu::runtime::SubmitStatus::Ok);
        EXPECT_EQ(backend.engine().packedPoints(), packed);
        expectMatchesScalar(robot, forced, got, fn);
    }
}

TEST(SmallLdltTest, MatchesGeneralLdltInverse)
{
    std::mt19937 rng(2024);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (int n = 1; n <= 6; ++n) {
        // SPD matrix A = B B^T + n I.
        MatrixX b(n, n);
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                b(r, c) = d(rng);
        MatrixX a = b * b.transpose();
        for (int i = 0; i < n; ++i)
            a(i, i) += n;

        dadu::linalg::SmallLdlt small;
        ASSERT_TRUE(small.compute(a));
        double inv[36];
        small.inverseInto(inv);

        const MatrixX ref = dadu::linalg::Ldlt(a).inverse();
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                EXPECT_EQ(inv[r * n + c], ref(r, c))
                    << "n=" << n << " r=" << r << " c=" << c;
    }
}

TEST(LdltInPlace, RefactorizeReusesStorage)
{
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    dadu::linalg::Ldlt ldlt;
    for (int round = 0; round < 3; ++round) {
        MatrixX b(5, 5);
        for (int r = 0; r < 5; ++r)
            for (int c = 0; c < 5; ++c)
                b(r, c) = d(rng);
        MatrixX a = b * b.transpose();
        for (int i = 0; i < 5; ++i)
            a(i, i) += 5.0;
        ASSERT_TRUE(ldlt.compute(a));
        VectorX rhs(5);
        for (int i = 0; i < 5; ++i)
            rhs[i] = d(rng);
        VectorX x = rhs;
        ldlt.solveInPlace(x);
        const VectorX ref = dadu::linalg::Ldlt(a).solve(rhs);
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(x[i], ref[i]);
    }
}

} // namespace
