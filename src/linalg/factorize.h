/**
 * @file
 * Dense symmetric factorizations and triangular solves.
 *
 * The paper computes the inverse of the mass matrix either directly
 * (MMinvGen, Algorithm 2) or via Cholesky/LDLT factorization
 * (Section III-A). These routines provide the factorization route,
 * both as a software baseline and as the reference the accelerator
 * results are validated against.
 */

#ifndef DADU_LINALG_FACTORIZE_H
#define DADU_LINALG_FACTORIZE_H

#include "linalg/matrixx.h"

namespace dadu::linalg {

/**
 * Cholesky factorization M = L L^T of a symmetric positive-definite
 * matrix.
 */
class Cholesky
{
  public:
    /**
     * Factorize @p m.
     * @param m symmetric positive-definite matrix.
     */
    explicit Cholesky(const MatrixX &m);

    /** Whether the factorization succeeded (matrix was SPD). */
    bool ok() const { return ok_; }

    /** Lower-triangular factor L. */
    const MatrixX &matrixL() const { return l_; }

    /** Solve M x = b. */
    VectorX solve(const VectorX &b) const;

    /** Solve M X = B column-wise. */
    MatrixX solve(const MatrixX &b) const;

    /** Dense inverse M^-1. */
    MatrixX inverse() const;

  private:
    MatrixX l_;
    bool ok_ = true;
};

/**
 * LDL^T factorization M = L D L^T of a symmetric matrix, with L unit
 * lower-triangular and D diagonal. This is the decomposition named in
 * Section III-A of the paper; it avoids square roots, matching the
 * accelerator's preference for reciprocal-only scalar kernels.
 */
class Ldlt
{
  public:
    /** Empty factorization; call compute() before use. */
    Ldlt() = default;

    explicit Ldlt(const MatrixX &m);

    /**
     * Refactorize @p m into the existing L/D storage. Reuses the
     * previously allocated capacity, so repeated factorizations of
     * same-sized matrices perform no heap allocation.
     */
    bool compute(const MatrixX &m);

    bool ok() const { return ok_; }

    const MatrixX &matrixL() const { return l_; }
    const VectorX &vectorD() const { return d_; }

    VectorX solve(const VectorX &b) const;
    MatrixX solve(const MatrixX &b) const;
    MatrixX inverse() const;

    /** Solve M x = b overwriting @p b with x; no allocation. */
    void solveInPlace(VectorX &b) const;

    /**
     * Solve M X = B for every column of @p b at once, overwriting it
     * with X; no allocation. The substitutions sweep whole rows
     * (contiguous in row-major storage); each column's result is
     * bitwise equal to solveInPlace(VectorX) on it. The multi-RHS
     * gain solve of the iLQR backward pass.
     */
    void solveInPlace(MatrixX &b) const;

  private:
    MatrixX l_;
    VectorX d_;
    bool ok_ = false; // false until a compute() succeeds
};

/**
 * LDL^T factorization of a small (n <= 6) SPD matrix with fixed,
 * stack-resident storage — the joint-space D_i blocks of ABA and
 * MMinvGen (Algorithm 2) are at most 6x6 (one per joint, N_i DOF).
 * The whole factor-solve-invert path performs no heap allocation,
 * writing results into caller-provided storage.
 */
class SmallLdlt
{
  public:
    /** Largest n. An enumerator, not an inline variable: see kArenaAlign. */
    enum : int { kMaxDim = 6 };

    SmallLdlt() = default;

    /** Factorize the n x n row-major matrix @p a (stride n). */
    bool compute(const double *a, int n);

    /** Factorize @p m (must be at most 6x6). */
    bool compute(const MatrixX &m);

    int dim() const { return n_; }
    bool ok() const { return ok_; }

    /**
     * Pivot D(i, i) of the factorization. All pivots positive ⇔ the
     * matrix was positive definite — the check regularized solvers
     * (iLQR's Quu) use to reject indefinite factorizations, matching
     * Ldlt::vectorD().
     */
    double pivot(int i) const { return d_[i]; }

    /** Solve M x = b overwriting the n entries of @p b. */
    void solveInPlace(double *b) const;

    /** Write the n x n inverse into row-major @p out (stride n). */
    void inverseInto(double *out) const;

  private:
    double l_[kMaxDim * kMaxDim] = {};
    double d_[kMaxDim] = {};
    int n_ = 0;
    bool ok_ = false;
};

/** Solve L x = b with L lower-triangular (forward substitution). */
VectorX solveLowerTriangular(const MatrixX &l, const VectorX &b);

/** Solve L^T x = b with L lower-triangular (backward substitution). */
VectorX solveLowerTriangularTransposed(const MatrixX &l, const VectorX &b);

} // namespace dadu::linalg

#endif // DADU_LINALG_FACTORIZE_H
