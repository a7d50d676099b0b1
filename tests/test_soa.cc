/**
 * @file
 * SoA lane-kernel contract tests:
 *
 *  - pack kernels (ABA, RNEA, ∆RNEA via ∆FD, FD, M⁻¹, CRBA) are
 *    bitwise identical to the scalar workspace kernels, per lane, on
 *    all three evaluation robots at W ∈ {4, 8};
 *  - the ∆ID pack, dense and gated, is bitwise identical to the
 *    scalar rnea + rneaDerivatives pair at W ∈ {4, 8, 16};
 *  - the default-target and x86-64-v4 builds of every pack kernel
 *    give the same bits (on hosts that run both);
 *  - masked lanes: inactive lanes are never written;
 *  - the batched engine splits full packs / masked ragged remainder
 *    without changing any point's bits, at any configured lane width
 *    (batch-width-invariant determinism);
 *  - the packed submit path performs zero steady-state heap
 *    allocations (counted global allocator, aligned forms included —
 *    the SoA arenas allocate via the C++17 aligned operator new).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/aba.h"
#include "algorithms/batched.h"
#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/soa/kernels.h"
#include "algorithms/workspace.h"
#include "linalg/aligned.h"
#include "algorithms/rnea_derivatives.h"
#include "model/builders.h"
#include "runtime/backends.h"

using namespace dadu;
using namespace dadu::algo;

// -----------------------------------------------------------------
// Counted global allocator. Counting is off by default; the
// zero-allocation tests switch it on around the measured region.
// The aligned forms matter here: the SoA arenas (aligned_vector)
// allocate through operator new(size, align_val_t).
// -----------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = align ? std::aligned_alloc(
                          align, (size + align - 1) / align * align)
                    : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
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

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

// -----------------------------------------------------------------
// Bitwise comparison helpers: memcmp over the raw doubles, so even
// -0.0 vs +0.0 differences fail (EXPECT_EQ would let them pass).
// -----------------------------------------------------------------

void
expectBitwise(const linalg::VectorX &a, const linalg::VectorX &b,
              const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i], y = b[i];
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << what << " entry " << i << ": " << x << " vs " << y;
    }
}

void
expectBitwise(const linalg::MatrixX &a, const linalg::MatrixX &b,
              const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            const double x = a(r, c), y = b(r, c);
            EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << what << " (" << r << ", " << c << "): " << x << " vs "
                << y;
        }
}

/** Every field of two results bitwise equal (absent fields included). */
void
expectSameResult(const runtime::DynamicsResult &a,
                 const runtime::DynamicsResult &b)
{
    expectBitwise(a.tau, b.tau, "tau");
    expectBitwise(a.qdd, b.qdd, "qdd");
    expectBitwise(a.m, b.m, "m");
    expectBitwise(a.minv, b.minv, "minv");
    expectBitwise(a.dtau_dq, b.dtau_dq, "dtau_dq");
    expectBitwise(a.dtau_dqd, b.dtau_dqd, "dtau_dqd");
    expectBitwise(a.dqdd_dq, b.dqdd_dq, "dqdd_dq");
    expectBitwise(a.dqdd_dqd, b.dqdd_dqd, "dqdd_dqd");
}

/**
 * Output slots of one pack into @p r, lane l into r[l]: every field,
 * the derivative slots into ∂τ (@p dtau, for ∆ID) or ∂q̈.
 */
soa::LaneResults
slots(std::vector<runtime::DynamicsResult> &r, bool dtau = false)
{
    soa::LaneResults s;
    for (std::size_t l = 0; l < r.size(); ++l) {
        s.tau[l] = &r[l].tau;
        s.qdd[l] = &r[l].qdd;
        s.m[l] = &r[l].m;
        s.minv[l] = &r[l].minv;
        s.d_dq[l] = dtau ? &r[l].dtau_dq : &r[l].dqdd_dq;
        s.d_dqd[l] = dtau ? &r[l].dtau_dqd : &r[l].dqdd_dqd;
    }
    return s;
}

struct Points
{
    std::vector<linalg::VectorX> q, qd, tau;
};

Points
randomPoints(const model::RobotModel &robot, int n, unsigned seed = 23)
{
    std::mt19937 rng(seed);
    Points p;
    for (int i = 0; i < n; ++i) {
        p.q.push_back(robot.randomConfiguration(rng));
        p.qd.push_back(robot.randomVelocity(rng));
        p.tau.push_back(robot.randomVelocity(rng));
    }
    return p;
}

struct RobotCase
{
    const char *name;
    model::RobotModel (*make)();
};

const RobotCase kRobots[] = {
    {"iiwa", model::makeIiwa},
    {"hyq", model::makeHyq},
    {"atlas", model::makeAtlas},
};

// -----------------------------------------------------------------
// Scalar-vs-pack parity, all kernels, W in {4, 8}, three robots.
// -----------------------------------------------------------------

TEST(SoaParity, AllKernelsBitwiseMatchScalar)
{
    for (const auto &rc : kRobots) {
        const model::RobotModel robot = rc.make();
        for (int w : {4, 8}) {
            SCOPED_TRACE(testing::Message() << rc.name << " W=" << w);
            const Points p = randomPoints(robot, w);

            // Scalar references, one workspace reused point-by-point
            // exactly like the batched engine's scalar path.
            DynamicsWorkspace sws(robot);
            std::vector<linalg::VectorX> s_fd(w), s_aba(w), s_rnea(w);
            std::vector<FdDerivatives> s_dfd(w);
            std::vector<linalg::MatrixX> s_minv(w), s_m(w);
            RneaResult rr;
            for (int l = 0; l < w; ++l) {
                forwardDynamics(robot, sws, p.q[l], p.qd[l], p.tau[l],
                                s_fd[l]);
                aba(robot, sws, p.q[l], p.qd[l], p.tau[l], s_aba[l]);
                // τ = RNEA(q, q̇, q̈): reuse the ABA q̈ as the target
                // acceleration so the round trip is nontrivial.
                rnea(robot, sws, p.q[l], p.qd[l], s_aba[l], rr);
                s_rnea[l] = rr.tau;
                fdDerivatives(robot, sws, p.q[l], p.qd[l], p.tau[l],
                              s_dfd[l]);
                massMatrixInverse(robot, sws, p.q[l], s_minv[l]);
                crba(robot, sws, p.q[l], s_m[l]);
            }

            // Pack evaluation of the same points.
            DynamicsWorkspace pws(robot);
            soa::LaneBatch lanes;
            lanes.mask = soa::LaneBatch::fullMask(w);
            for (int l = 0; l < w; ++l) {
                lanes.q[l] = &p.q[l];
                lanes.qd[l] = &p.qd[l];
            }
            auto withU = [&](const std::vector<linalg::VectorX> &u) {
                for (int l = 0; l < w; ++l)
                    lanes.u[l] = &u[l];
                return lanes;
            };
            std::vector<runtime::DynamicsResult> o_fd(w), o_aba(w),
                o_rnea(w), o_dfd(w), o_minv(w), o_m(w);
            soa::packForwardDynamics(robot, pws, w, withU(p.tau),
                                     slots(o_fd));
            soa::packAba(robot, pws, w, withU(p.tau), slots(o_aba));
            soa::packRnea(robot, pws, w, withU(s_aba), slots(o_rnea));
            soa::packFdDerivatives(robot, pws, w, withU(p.tau),
                                   slots(o_dfd));
            soa::packMinv(robot, pws, w, lanes, slots(o_minv));
            soa::packCrba(robot, pws, w, lanes, slots(o_m));

            for (int l = 0; l < w; ++l) {
                SCOPED_TRACE(testing::Message() << "lane " << l);
                expectBitwise(s_fd[l], o_fd[l].qdd, "FD qdd");
                expectBitwise(s_aba[l], o_aba[l].qdd, "ABA qdd");
                expectBitwise(s_rnea[l], o_rnea[l].tau, "RNEA tau");
                expectBitwise(s_dfd[l].qdd, o_dfd[l].qdd, "dFD qdd");
                expectBitwise(s_dfd[l].minv, o_dfd[l].minv, "dFD minv");
                expectBitwise(s_dfd[l].dqdd_dq, o_dfd[l].dqdd_dq,
                              "dFD dqdd_dq");
                expectBitwise(s_dfd[l].dqdd_dqd, o_dfd[l].dqdd_dqd,
                              "dFD dqdd_dqd");
                expectBitwise(s_minv[l], o_minv[l].minv, "Minv");
                expectBitwise(s_m[l], o_m[l].m, "CRBA M");
                // Each kernel writes its own fields only.
                EXPECT_EQ(o_fd[l].minv.rows(), 0u);
                EXPECT_EQ(o_m[l].qdd.size(), 0u);
            }
        }
    }
}

// -----------------------------------------------------------------
// ∆ID pack vs the scalar rnea + rneaDerivatives pair, dense and
// gated, W in {4, 8, 16}, with an inactive lane.
// -----------------------------------------------------------------

TEST(SoaParity, RneaDerivativesBitwiseMatchScalar)
{
    const double sentinel = -1234.5;
    for (const auto &rc : kRobots) {
        const model::RobotModel robot = rc.make();
        const int nv = robot.nv();
        ColumnPlan gated;
        ASSERT_TRUE(gated.resolve({0, nv / 2, nv - 1}, nv));
        ASSERT_FALSE(gated.dense());
        for (int w : {4, 8, 16}) {
            for (const ColumnPlan *plan : {(const ColumnPlan *)nullptr,
                                           (const ColumnPlan *)&gated}) {
                SCOPED_TRACE(testing::Message()
                             << rc.name << " W=" << w
                             << (plan ? " gated" : " dense"));
                const Points p = randomPoints(robot, w, 31);
                const unsigned mask = soa::LaneBatch::fullMask(w) & ~2u;

                DynamicsWorkspace sws(robot);
                DynamicsWorkspace pws(robot);
                soa::LaneBatch lanes;
                lanes.mask = mask;
                std::vector<runtime::DynamicsResult> got(w);
                for (int l = 0; l < w; ++l) {
                    lanes.q[l] = &p.q[l];
                    lanes.qd[l] = &p.qd[l];
                    lanes.u[l] = &p.tau[l]; // read as q̈
                    got[l].tau = linalg::VectorX(1);
                    got[l].tau[0] = sentinel;
                }
                soa::packRneaDerivatives(robot, pws, w, lanes,
                                         slots(got, true), plan);

                RneaResult rr;
                RneaDerivatives did;
                for (int l = 0; l < w; ++l) {
                    SCOPED_TRACE(testing::Message() << "lane " << l);
                    if (!(mask >> l & 1u)) {
                        ASSERT_EQ(got[l].tau.size(), 1u);
                        EXPECT_EQ(got[l].tau[0], sentinel);
                        EXPECT_EQ(got[l].dtau_dq.rows(), 0u);
                        continue;
                    }
                    rnea(robot, sws, p.q[l], p.qd[l], p.tau[l], rr);
                    rneaDerivatives(robot, sws, p.q[l], p.qd[l], p.tau[l],
                                    did, nullptr, false, plan);
                    expectBitwise(rr.tau, got[l].tau, "dID tau");
                    expectBitwise(did.dtau_dq, got[l].dtau_dq,
                                  "dID dtau_dq");
                    expectBitwise(did.dtau_dqd, got[l].dtau_dqd,
                                  "dID dtau_dqd");
                    if (plan)
                        for (int c = 0; c < nv; ++c)
                            if (!plan->isLive(c))
                                for (int r = 0; r < nv; ++r) {
                                    EXPECT_EQ(got[l].dtau_dq(r, c), 0.0);
                                    EXPECT_EQ(got[l].dtau_dqd(r, c), 0.0);
                                }
                }
            }
        }
    }
}

// -----------------------------------------------------------------
// The default-target and x86-64-v4 builds of the lane kernels agree
// bit for bit on every kernel, dense and gated, masked lanes
// included.
// -----------------------------------------------------------------

TEST(SoaIsa, V4BuildBitwiseMatchesDefaultBuild)
{
    const char *why = "";
    const soa::KernelSet *v4 = soa::v4Kernels(&why);
    if (v4 == nullptr)
        GTEST_SKIP() << "no x86-64-v4 kernels to compare: " << why;
    const soa::KernelSet &base = soa::base::kernels();
    EXPECT_EQ(&soa::activeKernels(), v4)
        << "a host that runs v4 must dispatch to it";

    using K = soa::PackKernel soa::KernelSet::*;
    const std::pair<const char *, K> kernels[] = {
        {"FD", &soa::KernelSet::forwardDynamics},
        {"dFD", &soa::KernelSet::fdDerivatives},
        {"diFD", &soa::KernelSet::fdGivenAccel},
        {"Minv", &soa::KernelSet::minv},
        {"ABA", &soa::KernelSet::aba},
        {"RNEA", &soa::KernelSet::rnea},
        {"CRBA", &soa::KernelSet::crba},
        {"dID", &soa::KernelSet::rneaDerivatives},
    };
    for (const auto &rc : kRobots) {
        const model::RobotModel robot = rc.make();
        const int nv = robot.nv();
        ColumnPlan gated;
        ASSERT_TRUE(gated.resolve({1, nv - 2}, nv));
        for (int w : {4, 8, 16}) {
            const Points p = randomPoints(robot, w, 37);
            DynamicsWorkspace sws(robot);
            std::vector<linalg::MatrixX> minv(w);
            for (int l = 0; l < w; ++l)
                massMatrixInverse(robot, sws, p.q[l], minv[l]);
            soa::LaneBatch lanes;
            lanes.mask = soa::LaneBatch::fullMask(w) & ~4u;
            for (int l = 0; l < w; ++l) {
                lanes.q[l] = &p.q[l];
                lanes.qd[l] = &p.qd[l];
                lanes.u[l] = &p.tau[l];
                lanes.minv[l] = &minv[l];
            }
            DynamicsWorkspace ws_base(robot), ws_v4(robot);
            for (const auto &[name, k] : kernels) {
                for (const ColumnPlan *plan :
                     {(const ColumnPlan *)nullptr,
                      (const ColumnPlan *)&gated}) {
                    SCOPED_TRACE(testing::Message()
                                 << rc.name << " W=" << w << " " << name
                                 << (plan ? " gated" : " dense"));
                    const bool dtau = std::string(name) == "dID";
                    std::vector<runtime::DynamicsResult> a(w), b(w);
                    (base.*k)(robot, ws_base, w, lanes, slots(a, dtau),
                              plan);
                    (v4->*k)(robot, ws_v4, w, lanes, slots(b, dtau), plan);
                    for (int l = 0; l < w; ++l)
                        expectSameResult(a[l], b[l]);
                }
            }
        }
    }
}

// -----------------------------------------------------------------
// Masked lanes: inactive lanes' outputs are never touched.
// -----------------------------------------------------------------

TEST(SoaMask, InactiveLanesNeverWritten)
{
    const model::RobotModel robot = model::makeIiwa();
    const int w = 8;
    const unsigned mask = 0b00100101u; // lanes 0, 2, 5 active
    const Points p = randomPoints(robot, w);

    DynamicsWorkspace sws(robot);
    std::vector<FdDerivatives> want(w);
    for (int l = 0; l < w; ++l)
        if (mask >> l & 1u)
            fdDerivatives(robot, sws, p.q[l], p.qd[l], p.tau[l], want[l]);

    DynamicsWorkspace pws(robot);
    soa::LaneBatch lanes;
    lanes.mask = mask;
    std::vector<runtime::DynamicsResult> got(w);
    const double sentinel = -1234.5;
    for (int l = 0; l < w; ++l) {
        if (mask >> l & 1u) {
            lanes.q[l] = &p.q[l];
            lanes.qd[l] = &p.qd[l];
            lanes.u[l] = &p.tau[l];
        } else {
            // Inactive: no input, and the output must stay untouched.
            got[l].qdd = linalg::VectorX(1);
            got[l].qdd[0] = sentinel;
        }
    }
    soa::packFdDerivatives(robot, pws, w, lanes, slots(got));

    for (int l = 0; l < w; ++l) {
        SCOPED_TRACE(testing::Message() << "lane " << l);
        if (mask >> l & 1u) {
            expectBitwise(want[l].qdd, got[l].qdd, "masked qdd");
            expectBitwise(want[l].dqdd_dq, got[l].dqdd_dq,
                          "masked dqdd_dq");
            expectBitwise(want[l].dqdd_dqd, got[l].dqdd_dqd,
                          "masked dqdd_dqd");
            expectBitwise(want[l].minv, got[l].minv, "masked minv");
        } else {
            ASSERT_EQ(got[l].qdd.size(), 1u);
            EXPECT_EQ(got[l].qdd[0], sentinel);
            EXPECT_EQ(got[l].dqdd_dq.rows(), 0u);
        }
    }
}

// -----------------------------------------------------------------
// Engine: ragged remainder + batch-width invariance. N = 13 runs as
// one full pack of 8 plus a masked pack of 5 (or 3x4 + 1 scalar point,
// or 13 scalar), and every split produces identical bits.
// -----------------------------------------------------------------

TEST(SoaEngine, RaggedRemainderMatchesScalarBitwise)
{
    for (const auto &rc : kRobots) {
        const model::RobotModel robot = rc.make();
        SCOPED_TRACE(rc.name);
        const int n = 13;
        const Points p = randomPoints(robot, n);

        DynamicsWorkspace sws(robot);
        std::vector<FdDerivatives> want(n);
        for (int i = 0; i < n; ++i)
            fdDerivatives(robot, sws, p.q[i], p.qd[i], p.tau[i], want[i]);

        BatchedDynamics engine(robot, 1);
        engine.setLaneWidth(8);
        const auto &got = engine.batchFdDerivatives(p.q, p.qd, p.tau);
        for (int i = 0; i < n; ++i) {
            SCOPED_TRACE(testing::Message() << "point " << i);
            expectBitwise(want[i].qdd, got[i].qdd, "qdd");
            expectBitwise(want[i].dqdd_dq, got[i].dqdd_dq, "dqdd_dq");
            expectBitwise(want[i].dqdd_dqd, got[i].dqdd_dqd, "dqdd_dqd");
            expectBitwise(want[i].minv, got[i].minv, "minv");
        }
    }
}

TEST(SoaEngine, BatchWidthInvariantBitwise)
{
    const model::RobotModel robot = model::makeHyq();
    const int n = 13;
    const Points p = randomPoints(robot, n);

    // Reference: scalar path (lane width 1).
    BatchedDynamics scalar_engine(robot, 1);
    scalar_engine.setLaneWidth(1);
    std::vector<linalg::VectorX> want_fd =
        scalar_engine.batchForwardDynamics(p.q, p.qd, p.tau);
    std::vector<FdDerivatives> want_dfd =
        scalar_engine.batchFdDerivatives(p.q, p.qd, p.tau);
    std::vector<linalg::MatrixX> want_minv = scalar_engine.batchMinv(p.q);

    for (int w : {4, 8, 16}) {
        SCOPED_TRACE(testing::Message() << "W=" << w);
        BatchedDynamics engine(robot, 1);
        engine.setLaneWidth(w);
        EXPECT_EQ(engine.laneWidth(), w);
        const auto &fd = engine.batchForwardDynamics(p.q, p.qd, p.tau);
        for (int i = 0; i < n; ++i)
            expectBitwise(want_fd[i], fd[i], "qdd");
        const auto &dfd = engine.batchFdDerivatives(p.q, p.qd, p.tau);
        for (int i = 0; i < n; ++i) {
            expectBitwise(want_dfd[i].qdd, dfd[i].qdd, "dfd qdd");
            expectBitwise(want_dfd[i].dqdd_dq, dfd[i].dqdd_dq,
                          "dfd dqdd_dq");
            expectBitwise(want_dfd[i].dqdd_dqd, dfd[i].dqdd_dqd,
                          "dfd dqdd_dqd");
            expectBitwise(want_dfd[i].minv, dfd[i].minv, "dfd minv");
        }
        const auto &minv = engine.batchMinv(p.q);
        for (int i = 0; i < n; ++i)
            expectBitwise(want_minv[i], minv[i], "minv");
    }
}

TEST(SoaEngine, UnsupportedLaneWidthIgnored)
{
    const model::RobotModel robot = model::makeIiwa();
    BatchedDynamics engine(robot, 1);
    const int before = engine.laneWidth();
    EXPECT_TRUE(before == 1 || soa::laneWidthSupported(before));
    engine.setLaneWidth(5);
    EXPECT_EQ(engine.laneWidth(), before);
    engine.setLaneWidth(0);
    EXPECT_EQ(engine.laneWidth(), before);
    engine.setLaneWidth(4);
    EXPECT_EQ(engine.laneWidth(), 4);
    engine.setLaneWidth(1);
    EXPECT_EQ(engine.laneWidth(), 1);
}

// -----------------------------------------------------------------
// Arena alignment: every pack the kernels read sits on a cache line.
// -----------------------------------------------------------------

TEST(SoaArena, AlignedAllocations)
{
    linalg::aligned_vector<double> v(1000);
    EXPECT_TRUE(linalg::isAligned(v.data()));
    const model::RobotModel atlas = model::makeAtlas();
    DynamicsWorkspace ws(atlas);
    ws.ensure(atlas);
    // The scalar arenas share the aligned allocator.
    EXPECT_TRUE(linalg::isAligned(ws.xup.data()));
    EXPECT_TRUE(linalg::isAligned(ws.v.data()));
    EXPECT_TRUE(linalg::isAligned(ws.ia.data()));
}

// -----------------------------------------------------------------
// Zero-allocation: after the first (arena-building) batch, repeat
// submits through the packed path allocate nothing.
// -----------------------------------------------------------------

TEST(SoaZeroAlloc, PackedEngineSteadyState)
{
    const model::RobotModel robot = model::makeIiwa();
    // 13 = a full pack of 8 + a masked remainder of 5 (W = 8);
    // 11 = 8 + a masked remainder of 3, packed at the narrower W = 4.
    const Points p = randomPoints(robot, 13);
    const auto batches = [&](BatchedDynamics &engine) {
        for (int n : {13, 11}) {
            engine.batchForwardDynamics(p.q.data(), p.qd.data(),
                                        p.tau.data(), n);
            engine.batchFdDerivatives(p.q.data(), p.qd.data(), p.tau.data(),
                                      n);
            engine.batchMinv(p.q.data(), n);
        }
    };

    BatchedDynamics engine(robot, 1);
    engine.setLaneWidth(8);
    // Warm-up builds the SoA arenas of both widths and output vectors.
    batches(engine);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    batches(engine);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state packed batches must not allocate";
}

TEST(SoaZeroAlloc, PackedBackendSubmitSteadyState)
{
    const model::RobotModel robot = model::makeIiwa();
    runtime::CpuBatchedBackend backend(robot, 1);
    backend.engine().setLaneWidth(8);
    // As above: remainders of 5 (masked at W = 8) and 3 (at W = 4).
    const int sizes[] = {13, 11};

    std::mt19937 rng(29);
    std::vector<runtime::DynamicsRequest> reqs(13);
    for (auto &r : reqs) {
        r.q = robot.randomConfiguration(rng);
        r.qd = robot.randomVelocity(rng);
        r.qdd_or_tau = robot.randomVelocity(rng);
    }
    std::vector<runtime::DynamicsResult> results(13);

    // Every function through the packs, one after another on the same
    // results — the mix a server lane sees.
    using runtime::FunctionType;
    const FunctionType fns[] = {FunctionType::DeltaFD, FunctionType::FD,
                                FunctionType::ID, FunctionType::M,
                                FunctionType::DeltaID};
    runtime::BatchStats stats;
    const auto submits = [&] {
        for (int n : sizes)
            for (FunctionType fn : fns)
                backend.submit(fn, reqs.data(), n, results.data(), &stats);
    };
    submits();
    const std::uint64_t packed = backend.engine().packedPoints();

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    submits();
    g_count_allocs.store(false);
    EXPECT_EQ(backend.engine().packedPoints() - packed,
              std::size(fns) * (13u + 11u))
        << "every point runs in a pack, the remainders masked";
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state packed submits must not allocate";
}

} // namespace
