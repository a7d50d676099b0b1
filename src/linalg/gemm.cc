#include "linalg/gemm.h"

#include <cstring>

namespace dadu::linalg {

namespace {

/** Two doubles: the SSE2 register every x86-64 target has. */
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

/**
 * R output rows by 2P output columns: per row P Pair accumulators,
 * each the B row segment times the broadcast left-factor entry, so
 * the vector lanes are output columns and every element's reduction
 * stays sequential. Element (r, p) of the left factor is a[r*lda + p]
 * (A·B) or a[p*lda + r] (Aᵀ·B). The full 4x4 tile keeps eight
 * independent accumulators in flight, enough to cover the add latency.
 */
template <bool kTrans, int R, int P>
void
pairTile(int k, const double *a, int lda, const double *b, int ldb,
         double *c, int ldc)
{
    Pair acc[R][P];
    for (int r = 0; r < R; ++r)
        for (int q = 0; q < P; ++q)
            std::memcpy(&acc[r][q], c + r * ldc + 2 * q, sizeof(Pair));
    for (int p = 0; p < k; ++p) {
        Pair bp[P];
        for (int q = 0; q < P; ++q)
            std::memcpy(&bp[q], b + p * ldb + 2 * q, sizeof(Pair));
        for (int r = 0; r < R; ++r) {
            const double ar = kTrans ? a[p * lda + r] : a[r * lda + p];
            const Pair av = {ar, ar};
            for (int q = 0; q < P; ++q)
                acc[r][q] += av * bp[q];
        }
    }
    for (int r = 0; r < R; ++r)
        for (int q = 0; q < P; ++q)
            std::memcpy(c + r * ldc + 2 * q, &acc[r][q], sizeof(Pair));
}

/** R output rows of a single (odd last) output column, in scalars. */
template <bool kTrans, int R>
void
columnTile(int k, const double *a, int lda, const double *b, int ldb,
           double *c, int ldc)
{
    double acc[R];
    for (int r = 0; r < R; ++r)
        acc[r] = c[r * ldc];
    for (int p = 0; p < k; ++p)
        for (int r = 0; r < R; ++r)
            acc[r] += (kTrans ? a[p * lda + r] : a[r * lda + p]) * b[p * ldb];
    for (int r = 0; r < R; ++r)
        c[r * ldc] = acc[r];
}

/** R output rows across all n columns: 4-wide tiles, then a 2-wide
 *  and a 1-wide edge. */
template <bool kTrans, int R>
void
rowBlock(int n, int k, const double *a, int lda, const double *b, int ldb,
         double *c, int ldc)
{
    int j = 0;
    for (; j + 4 <= n; j += 4)
        pairTile<kTrans, R, 2>(k, a, lda, b + j, ldb, c + j, ldc);
    if (j + 2 <= n) {
        pairTile<kTrans, R, 1>(k, a, lda, b + j, ldb, c + j, ldc);
        j += 2;
    }
    if (j < n)
        columnTile<kTrans, R>(k, a, lda, b + j, ldb, c + j, ldc);
}

template <bool kTrans>
void
gemm(int m, int n, int k, const double *a, int lda, const double *b,
     int ldb, double *c, int ldc)
{
    for (int i = 0; i < m; i += 4) {
        // The block's first row of the left factor and of C.
        const double *ai = kTrans ? a + i : a + i * lda;
        double *ci = c + i * ldc;
        switch (m - i) {
          case 1: rowBlock<kTrans, 1>(n, k, ai, lda, b, ldb, ci, ldc); break;
          case 2: rowBlock<kTrans, 2>(n, k, ai, lda, b, ldb, ci, ldc); break;
          case 3: rowBlock<kTrans, 3>(n, k, ai, lda, b, ldb, ci, ldc); break;
          default: rowBlock<kTrans, 4>(n, k, ai, lda, b, ldb, ci, ldc);
        }
    }
}

} // namespace

void
gemmAccumulate(int m, int n, int k, const double *a, int lda,
               const double *b, int ldb, double *c, int ldc)
{
    gemm<false>(m, n, k, a, lda, b, ldb, c, ldc);
}

void
gemmTransAccumulate(int m, int n, int k, const double *a, int lda,
                    const double *b, int ldb, double *c, int ldc)
{
    gemm<true>(m, n, k, a, lda, b, ldb, c, ldc);
}

} // namespace dadu::linalg
