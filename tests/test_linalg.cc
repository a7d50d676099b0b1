/**
 * @file
 * Unit tests for the fixed-size and dynamic linear algebra types,
 * the factorizations, and the register-tiled products of gemm.h
 * (bitwise parity with the MatrixX products they stand in for).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "linalg/factorize.h"
#include "linalg/gemm.h"
#include "linalg/mat.h"
#include "linalg/matrixx.h"
#include "linalg/vec.h"

namespace {

using namespace dadu::linalg;

TEST(Vec, BasicArithmetic)
{
    const Vec3 a{1, 2, 3};
    const Vec3 b{4, 5, 6};
    const Vec3 s = a + b;
    EXPECT_DOUBLE_EQ(s[0], 5);
    EXPECT_DOUBLE_EQ(s[1], 7);
    EXPECT_DOUBLE_EQ(s[2], 9);
    const Vec3 d = b - a;
    EXPECT_DOUBLE_EQ(d[0], 3);
    EXPECT_DOUBLE_EQ((a * 2.0)[2], 6);
    EXPECT_DOUBLE_EQ((2.0 * a)[2], 6);
    EXPECT_DOUBLE_EQ((-a)[1], -2);
}

TEST(Vec, DotAndNorm)
{
    const Vec3 a{3, 4, 0};
    EXPECT_DOUBLE_EQ(a.dot(a), 25);
    EXPECT_DOUBLE_EQ(a.norm(), 5);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 4);
}

TEST(Vec, CrossProduct)
{
    const Vec3 x = Vec3::unit(0), y = Vec3::unit(1), z = Vec3::unit(2);
    EXPECT_EQ(cross(x, y), z);
    EXPECT_EQ(cross(y, z), x);
    EXPECT_EQ(cross(z, x), y);
    // Antisymmetry.
    const Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
    EXPECT_LT((cross(a, b) + cross(b, a)).maxAbs(), 1e-15);
}

TEST(Vec, JoinAndHalves)
{
    const Vec6 v = join(Vec3{1, 2, 3}, Vec3{4, 5, 6});
    EXPECT_EQ(topHalf(v), (Vec3{1, 2, 3}));
    EXPECT_EQ(bottomHalf(v), (Vec3{4, 5, 6}));
}

TEST(Vec, UnitAndConstant)
{
    EXPECT_DOUBLE_EQ(Vec6::unit(4)[4], 1);
    EXPECT_DOUBLE_EQ(Vec6::unit(4)[3], 0);
    EXPECT_DOUBLE_EQ(Vec3::constant(2.5)[1], 2.5);
}

TEST(Mat, IdentityAndMultiply)
{
    const Mat3 i = Mat3::identity();
    const Vec3 v{1, 2, 3};
    EXPECT_EQ(i * v, v);
    const Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 10};
    EXPECT_EQ(a * i, a);
    EXPECT_EQ(i * a, a);
}

TEST(Mat, TransposeRoundTrip)
{
    const Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 10};
    EXPECT_EQ(a.transpose().transpose(), a);
    // (AB)^T == B^T A^T.
    const Mat3 b{0, 1, 0, -1, 0, 2, 3, 0, 1};
    EXPECT_LT(((a * b).transpose() - b.transpose() * a.transpose()).maxAbs(),
              1e-14);
}

TEST(Mat, SkewMatchesCross)
{
    const Vec3 a{1.5, -2, 0.25}, b{3, 0.5, -1};
    EXPECT_LT((skew(a) * b - cross(a, b)).maxAbs(), 1e-15);
    // skew is antisymmetric.
    EXPECT_LT((skew(a) + skew(a).transpose()).maxAbs(), 1e-15);
}

TEST(Mat, RotationsAreOrthonormal)
{
    for (double q : {0.0, 0.3, -1.2, 2.9}) {
        for (const Mat3 &r : {rotX(q), rotY(q), rotZ(q)}) {
            EXPECT_LT((r * r.transpose() - Mat3::identity()).maxAbs(),
                      1e-14);
        }
    }
}

TEST(Mat, RotZRotatesXToY)
{
    // Coordinate transform: a vector fixed along world x, expressed
    // in a frame rotated +90° about z, appears along -y... E acts as
    // coordinates-of-fixed-vector-in-rotated-frame.
    const Vec3 ex = Vec3::unit(0);
    const Vec3 out = rotZ(M_PI / 2.0) * ex;
    EXPECT_NEAR(out[0], 0.0, 1e-15);
    EXPECT_NEAR(out[1], -1.0, 1e-15);
}

TEST(Mat, Blocks66RoundTrip)
{
    const Mat3 a = Mat3::identity() * 2.0;
    const Mat3 b{1, 2, 3, 4, 5, 6, 7, 8, 9};
    const Mat66 m = blocks66(a, b, b.transpose(), a);
    EXPECT_DOUBLE_EQ(m(0, 0), 2);
    EXPECT_DOUBLE_EQ(m(0, 4), 2);
    EXPECT_DOUBLE_EQ(m(3, 1), 4);
    EXPECT_DOUBLE_EQ(m(4, 0), 2);
}

TEST(Mat, ColRowAccessors)
{
    const Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(a.col(1), (Vec3{2, 5, 8}));
    EXPECT_EQ(a.row(2), (Vec3{7, 8, 9}));
    Mat3 b;
    b.setCol(0, Vec3{1, 2, 3});
    EXPECT_DOUBLE_EQ(b(2, 0), 3);
}

TEST(MatrixX, BasicOps)
{
    MatrixX a(2, 3);
    a(0, 0) = 1;
    a(1, 2) = 5;
    const MatrixX at = a.transpose();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_DOUBLE_EQ(at(2, 1), 5);

    const MatrixX i = MatrixX::identity(3);
    const MatrixX ai = a * i;
    EXPECT_DOUBLE_EQ(ai(1, 2), 5);
    EXPECT_DOUBLE_EQ((a + a)(1, 2), 10);
    EXPECT_DOUBLE_EQ((a - a).maxAbs(), 0);
    EXPECT_DOUBLE_EQ((-a)(1, 2), -5);
}

TEST(MatrixX, BlockOps)
{
    MatrixX m(4, 4);
    MatrixX b(2, 2);
    b(0, 0) = 1;
    b(0, 1) = 2;
    b(1, 0) = 3;
    b(1, 1) = 4;
    m.setBlock(1, 2, b);
    EXPECT_DOUBLE_EQ(m(1, 2), 1);
    EXPECT_DOUBLE_EQ(m(2, 3), 4);
    const MatrixX c = m.block(1, 2, 2, 2);
    EXPECT_DOUBLE_EQ(c(1, 1), 4);
}

TEST(VectorX, SegmentOps)
{
    VectorX v{1, 2, 3, 4, 5};
    const VectorX s = v.segment(1, 3);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[2], 4);
    v.setSegment(0, VectorX{9, 8});
    EXPECT_DOUBLE_EQ(v[0], 9);
    EXPECT_DOUBLE_EQ(v[1], 8);
    EXPECT_DOUBLE_EQ(v[2], 3);
}

MatrixX
randomSpd(int n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    MatrixX a(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            a(i, j) = d(rng);
    MatrixX m = a * a.transpose();
    for (int i = 0; i < n; ++i)
        m(i, i) += n; // ensure positive-definiteness
    return m;
}

class FactorizeTest : public ::testing::TestWithParam<int>
{};

TEST_P(FactorizeTest, CholeskyReconstructs)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 42 + n);
    Cholesky chol(m);
    ASSERT_TRUE(chol.ok());
    const MatrixX l = chol.matrixL();
    EXPECT_LT((l * l.transpose() - m).maxAbs(), 1e-10);
}

TEST_P(FactorizeTest, CholeskySolves)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 7 + n);
    std::mt19937 rng(n);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    VectorX b(n);
    for (int i = 0; i < n; ++i)
        b[i] = d(rng);
    Cholesky chol(m);
    const VectorX x = chol.solve(b);
    EXPECT_LT((m * x - b).maxAbs(), 1e-9);
}

TEST_P(FactorizeTest, CholeskyInverse)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 99 + n);
    const MatrixX minv = Cholesky(m).inverse();
    EXPECT_LT((m * minv - MatrixX::identity(n)).maxAbs(), 1e-9);
}

TEST_P(FactorizeTest, LdltReconstructs)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 5 + n);
    Ldlt ldlt(m);
    ASSERT_TRUE(ldlt.ok());
    const MatrixX l = ldlt.matrixL();
    MatrixX ld = l;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            ld(i, j) *= ldlt.vectorD()[j];
    EXPECT_LT((ld * l.transpose() - m).maxAbs(), 1e-10);
}

TEST_P(FactorizeTest, LdltSolveMatchesCholesky)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 13 + n);
    VectorX b(n);
    for (int i = 0; i < n; ++i)
        b[i] = std::sin(i + 1.0);
    const VectorX x1 = Cholesky(m).solve(b);
    const VectorX x2 = Ldlt(m).solve(b);
    EXPECT_LT((x1 - x2).maxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizeTest,
                         ::testing::Values(1, 2, 3, 6, 7, 18, 36));

TEST(Factorize, CholeskyRejectsIndefinite)
{
    MatrixX m = MatrixX::identity(3);
    m(2, 2) = -1.0;
    EXPECT_FALSE(Cholesky(m).ok());
}

TEST(Factorize, TriangularSolves)
{
    MatrixX l(3, 3);
    l(0, 0) = 2;
    l(1, 0) = 1;
    l(1, 1) = 3;
    l(2, 0) = 0.5;
    l(2, 1) = -1;
    l(2, 2) = 1.5;
    const VectorX b{2, 5, 1};
    const VectorX x = solveLowerTriangular(l, b);
    EXPECT_LT((l * x - b).maxAbs(), 1e-12);
    const VectorX y = solveLowerTriangularTransposed(l, b);
    EXPECT_LT((l.transpose() * y - b).maxAbs(), 1e-12);
}

// ---------------------------------------------------------------------
// Tiled products and the multi-RHS substitution: bitwise parity
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Uniform values in [-1, 1] with exact +0.0 and -0.0 mixed in (a
 *  fifth each): the zero-skip of the MatrixX products must not show. */
std::vector<double>
randomWithZeros(std::size_t count, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    std::uniform_int_distribution<int> pick(0, 4);
    std::vector<double> v(count);
    for (double &x : v) {
        const int p = pick(rng);
        x = p == 0 ? 0.0 : p == 1 ? -0.0 : d(rng);
    }
    return v;
}

TEST(Gemm, TiledProductsBitwiseEqualMatrixXProducts)
{
    // Every M, N, K in 1..37 hits every edge-tile shape (rows and
    // columns mod 4) at every reduction length. Operands are blocks
    // of 37-wide storage, so the strides differ from the widths.
    constexpr int kMax = 37;
    const std::vector<double> a = randomWithZeros(kMax * kMax, 1);
    const std::vector<double> b = randomWithZeros(kMax * kMax, 2);
    std::vector<double> c(kMax * kMax);
    long mismatches = 0;
    for (int m = 1; m <= kMax; ++m) {
        for (int n = 1; n <= kMax; ++n) {
            for (int k = 1; k <= kMax; ++k) {
                MatrixX am(m, k), atm(k, m), bm(k, n), ref;
                for (int i = 0; i < m; ++i)
                    for (int p = 0; p < k; ++p)
                        am(i, p) = a[i * kMax + p];
                for (int p = 0; p < k; ++p)
                    for (int i = 0; i < m; ++i)
                        atm(p, i) = a[p * kMax + i];
                for (int p = 0; p < k; ++p)
                    for (int j = 0; j < n; ++j)
                        bm(p, j) = b[p * kMax + j];

                am.multiplyInto(bm, ref);
                std::fill(c.begin(), c.end(), 0.0);
                gemmAccumulate(m, n, k, a.data(), kMax, b.data(), kMax,
                               c.data(), kMax);
                for (int i = 0; i < m; ++i)
                    for (int j = 0; j < n; ++j)
                        mismatches += !sameBits(c[i * kMax + j], ref(i, j));

                atm.transposeMultiplyInto(bm, ref);
                std::fill(c.begin(), c.end(), 0.0);
                gemmTransAccumulate(m, n, k, a.data(), kMax, b.data(), kMax,
                                    c.data(), kMax);
                for (int i = 0; i < m; ++i)
                    for (int j = 0; j < n; ++j)
                        mismatches += !sameBits(c[i * kMax + j], ref(i, j));
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Gemm, AccumulatesOntoCInAscendingOrder)
{
    // C += A·B continues each element's sum from its current value,
    // one product at a time: the contract the Riccati sweep relies on
    // when it adds A's dense bottom rows after its top-row pattern.
    constexpr int kMax = 9;
    const std::vector<double> a = randomWithZeros(kMax * kMax, 3);
    const std::vector<double> b = randomWithZeros(kMax * kMax, 4);
    const std::vector<double> c0 = randomWithZeros(kMax * kMax, 5);
    for (int m = 1; m <= kMax; ++m) {
        for (int n = 1; n <= kMax; ++n) {
            for (int k = 1; k <= kMax; ++k) {
                std::vector<double> c = c0, ct = c0;
                gemmAccumulate(m, n, k, a.data(), kMax, b.data(), kMax,
                               c.data(), kMax);
                gemmTransAccumulate(m, n, k, a.data(), kMax, b.data(), kMax,
                                    ct.data(), kMax);
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < n; ++j) {
                        double s = c0[i * kMax + j], st = s;
                        for (int p = 0; p < k; ++p) {
                            s += a[i * kMax + p] * b[p * kMax + j];
                            st += a[p * kMax + i] * b[p * kMax + j];
                        }
                        ASSERT_TRUE(sameBits(c[i * kMax + j], s))
                            << m << "x" << n << "x" << k;
                        ASSERT_TRUE(sameBits(ct[i * kMax + j], st))
                            << m << "x" << n << "x" << k;
                    }
                }
            }
        }
    }
}

TEST(Ldlt, MultiRhsSolveBitwiseEqualsColumnByColumn)
{
    for (int n : {1, 2, 3, 6, 7, 18, 36}) {
        const Ldlt ldlt(randomSpd(n, 31 + n));
        for (int cols : {1, 4, 5, 37}) {
            const std::vector<double> v = randomWithZeros(
                static_cast<std::size_t>(n * cols), 17 + n * cols);
            MatrixX x(n, cols);
            for (int i = 0; i < n; ++i)
                for (int c = 0; c < cols; ++c)
                    x(i, c) = v[i * cols + c];
            const MatrixX b = x;
            ldlt.solveInPlace(x);
            for (int c = 0; c < cols; ++c) {
                VectorX col = b.col(c);
                ldlt.solveInPlace(col);
                for (int i = 0; i < n; ++i)
                    ASSERT_TRUE(sameBits(x(i, c), col[i]))
                        << "n " << n << ", column " << c << " of " << cols;
            }
        }
    }
}

} // namespace
