/**
 * @file
 * The register-tiled products, compiled once per instruction-set
 * build like the lane kernels (soa/kernels.cc): for the default target
 * with DADU_ISA = base, and again for x86-64-v4 with DADU_ISA = v4
 * (CMakeLists.txt). The build's only exported symbol is its
 * gemmKernels() table; linalg/gemm_dispatch.cc picks one at run time.
 */

#include "linalg/gemm.h"

#include <cstring>

#ifndef DADU_ISA
#define DADU_ISA base
#endif

namespace dadu::linalg::DADU_ISA {

namespace {

/**
 * Doubles per vector of the widest tile: 8 (one AVX-512 register)
 * where the build targets AVX-512, else 2 (the SSE2 register every
 * x86-64 target has). A wider vector type on a narrower target would
 * only split into more registers than the file has.
 */
#ifdef __AVX512F__
constexpr int kLanes = 8;
#else
constexpr int kLanes = 2;
#endif

/** V doubles in one vector (GCC drops vector_size on an alias
 *  template, so a member typedef carries it). */
template <int V>
struct VecOf
{
    typedef double type __attribute__((vector_size(V * sizeof(double))));
    static_assert(sizeof(type) == V * sizeof(double));
};
template <int V>
using Vec = typename VecOf<V>::type;

/**
 * R output rows by P·V output columns: per row P accumulators of V
 * lanes, each the B row segment times the left-factor entry, so the
 * vector lanes are output columns and every element's reduction
 * stays sequential. Element (r, p) of the left factor is a[r*lda + p]
 * (A·B) or a[p*lda + r] (Aᵀ·B). The full tile (4 rows, P = 2) keeps
 * eight independent accumulators in flight, enough to cover the add
 * latency.
 */
template <bool kTrans, int R, int V, int P>
void
vecTile(int k, const double *a, int lda, const double *b, int ldb,
        double *c, int ldc)
{
    Vec<V> acc[R][P];
    for (int r = 0; r < R; ++r)
        for (int q = 0; q < P; ++q)
            std::memcpy(&acc[r][q], c + r * ldc + V * q, sizeof(Vec<V>));
    for (int p = 0; p < k; ++p) {
        Vec<V> bp[P];
        for (int q = 0; q < P; ++q)
            std::memcpy(&bp[q], b + p * ldb + V * q, sizeof(Vec<V>));
        for (int r = 0; r < R; ++r) {
            const double ar = kTrans ? a[p * lda + r] : a[r * lda + p];
            for (int q = 0; q < P; ++q)
                acc[r][q] += ar * bp[q];
        }
    }
    for (int r = 0; r < R; ++r)
        for (int q = 0; q < P; ++q)
            std::memcpy(c + r * ldc + V * q, &acc[r][q], sizeof(Vec<V>));
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

/**
 * The columns from @p j on, narrowest-last: one V-lane vector edge
 * if at least V columns remain, then the next narrower one, down to a
 * single scalar column.
 */
template <bool kTrans, int R, int V>
void
edgeTiles(int n, int j, int k, const double *a, int lda, const double *b,
          int ldb, double *c, int ldc)
{
    if constexpr (V == 1) {
        if (j < n)
            columnTile<kTrans, R>(k, a, lda, b + j, ldb, c + j, ldc);
    } else {
        if (j + V <= n) {
            vecTile<kTrans, R, V, 1>(k, a, lda, b + j, ldb, c + j, ldc);
            j += V;
        }
        edgeTiles<kTrans, R, V / 2>(n, j, k, a, lda, b, ldb, c, ldc);
    }
}

/** R output rows across all n columns: 2·kLanes-wide tiles, then
 *  the edges. */
template <bool kTrans, int R>
void
rowBlock(int n, int k, const double *a, int lda, const double *b, int ldb,
         double *c, int ldc)
{
    int j = 0;
    for (; j + 2 * kLanes <= n; j += 2 * kLanes)
        vecTile<kTrans, R, kLanes, 2>(k, a, lda, b + j, ldb, c + j, ldc);
    edgeTiles<kTrans, R, kLanes>(n, j, k, a, lda, b, ldb, c, ldc);
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

const GemmSet &
gemmKernels()
{
    static constexpr GemmSet kSet = {gemm<false>, gemm<true>};
    return kSet;
}

} // namespace dadu::linalg::DADU_ISA
