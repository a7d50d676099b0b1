/**
 * @file
 * Register-tiled dense products on pointer-and-stride operands.
 *
 * The iLQR Riccati sweep multiplies blocks of row-major matrices
 * (a sub-block of a MatrixX is a pointer plus its row stride). These
 * kernels tile the OUTPUT in register blocks of 4 rows and vectorize
 * across output columns only.
 *
 * Two builds, like the SoA lane kernels: gemm.cc is compiled once for
 * the default target (4 x 4 tiles of SSE2 pairs, 2-column and
 * 1-column edges) and once for x86-64-v4 (4 x 16 tiles of AVX-512
 * vectors, 8-, 4-, 2- and 1-column edges), each in its own namespace
 * (linalg::base, linalg::v4). gemmAccumulate and gemmTransAccumulate
 * run the v4 build exactly where the lane kernels do (linalg/isa.h),
 * chosen once per process.
 *
 * Bitwise contract: every output element accumulates onto its value
 * in C one product at a time, in ascending inner index — the order of
 * MatrixX::multiplyInto / transposeMultiplyInto. Those skip terms
 * whose left factor is exactly zero; the kernels do not, which is
 * neutral on finite inputs (a ±0 product leaves a nonzero sum
 * unchanged, and a sum that starts at +0 stays +0), so with C zeroed
 * first the results are bitwise equal to the MatrixX products. No
 * FMA contraction (the build passes -ffp-contract=off), no split
 * accumulators — so the tile width, and with it the build, never
 * changes a bit.
 */

#ifndef DADU_LINALG_GEMM_H
#define DADU_LINALG_GEMM_H

namespace dadu::linalg {

/**
 * C += A·B. A is m x k (row stride @p lda), B is k x n (@p ldb), C is
 * m x n (@p ldc), all row-major. C must not overlap A or B.
 */
void gemmAccumulate(int m, int n, int k, const double *a, int lda,
                    const double *b, int ldb, double *c, int ldc);

/**
 * C += Aᵀ·B. A is stored k x m (row stride @p lda), B is k x n, C is
 * m x n. C must not overlap A or B.
 */
void gemmTransAccumulate(int m, int n, int k, const double *a, int lda,
                         const double *b, int ldb, double *c, int ldc);

/** The signature of gemmAccumulate and gemmTransAccumulate. */
using GemmKernel = void (*)(int m, int n, int k, const double *a, int lda,
                            const double *b, int ldb, double *c, int ldc);

/** One build of the products. */
struct GemmSet
{
    GemmKernel accumulate, transAccumulate;
};

/**
 * The x86-64-v4 build, or null when the compiler could not build it
 * or this CPU cannot run it; @p why (if given) then names the reason.
 */
const GemmSet *v4Gemm(const char **why = nullptr);

/** The build gemmAccumulate and gemmTransAccumulate run. */
const GemmSet &activeGemm();

// The per-build tables, defined by each compilation of gemm.cc: base
// for the compiler's default target, v4 only where it was built
// (reach it through v4Gemm()).
namespace base {
const GemmSet &gemmKernels();
}
namespace v4 {
const GemmSet &gemmKernels();
}

} // namespace dadu::linalg

#endif // DADU_LINALG_GEMM_H
