/**
 * @file
 * Register-tiled dense products on pointer-and-stride operands.
 *
 * The iLQR Riccati sweep multiplies blocks of row-major matrices
 * (a sub-block of a MatrixX is a pointer plus its row stride). These
 * kernels tile the OUTPUT in 4x4 register blocks (narrower blocks at
 * the edges) and vectorize across output columns only.
 *
 * Bitwise contract: every output element accumulates onto its value
 * in C one product at a time, in ascending inner index — the order of
 * MatrixX::multiplyInto / transposeMultiplyInto. Those skip terms
 * whose left factor is exactly zero; the kernels do not, which is
 * neutral on finite inputs (a ±0 product leaves a nonzero sum
 * unchanged, and a sum that starts at +0 stays +0), so with C zeroed
 * first the results are bitwise equal to the MatrixX products. No
 * FMA contraction (the build passes -ffp-contract=off), no split
 * accumulators.
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

} // namespace dadu::linalg

#endif // DADU_LINALG_GEMM_H
