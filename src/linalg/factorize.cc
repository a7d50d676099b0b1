#include "linalg/factorize.h"

#include <cmath>

namespace dadu::linalg {

Cholesky::Cholesky(const MatrixX &m) : l_(m.rows(), m.cols())
{
    assert(m.rows() == m.cols());
    const std::size_t n = m.rows();
    for (std::size_t j = 0; j < n; ++j) {
        double diag = m(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_(j, k) * l_(j, k);
        if (diag <= 0.0) {
            ok_ = false;
            return;
        }
        const double ljj = std::sqrt(diag);
        l_(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = m(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l_(i, k) * l_(j, k);
            l_(i, j) = s / ljj;
        }
    }
}

VectorX
Cholesky::solve(const VectorX &b) const
{
    VectorX y = solveLowerTriangular(l_, b);
    return solveLowerTriangularTransposed(l_, y);
}

MatrixX
Cholesky::solve(const MatrixX &b) const
{
    MatrixX x(b.rows(), b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c)
        x.setCol(c, solve(b.col(c)));
    return x;
}

MatrixX
Cholesky::inverse() const
{
    return solve(MatrixX::identity(l_.rows()));
}

Ldlt::Ldlt(const MatrixX &m)
{
    compute(m);
}

bool
Ldlt::compute(const MatrixX &m)
{
    assert(m.rows() == m.cols());
    const std::size_t n = m.rows();
    l_.resize(n, n);
    d_.resize(n);
    ok_ = true;
    for (std::size_t j = 0; j < n; ++j) {
        double dj = m(j, j);
        for (std::size_t k = 0; k < j; ++k)
            dj -= l_(j, k) * l_(j, k) * d_[k];
        if (dj == 0.0) {
            ok_ = false;
            return ok_;
        }
        d_[j] = dj;
        l_(j, j) = 1.0;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = m(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l_(i, k) * l_(j, k) * d_[k];
            l_(i, j) = s / dj;
        }
    }
    return ok_;
}

VectorX
Ldlt::solve(const VectorX &b) const
{
    VectorX y = solveLowerTriangular(l_, b);
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] /= d_[i];
    return solveLowerTriangularTransposed(l_, y);
}

MatrixX
Ldlt::solve(const MatrixX &b) const
{
    MatrixX x(b.rows(), b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c)
        x.setCol(c, solve(b.col(c)));
    return x;
}

MatrixX
Ldlt::inverse() const
{
    return solve(MatrixX::identity(l_.rows()));
}

void
Ldlt::solveInPlace(VectorX &b) const
{
    assert(b.size() == l_.rows());
    const std::size_t n = b.size();
    // Forward substitution with unit-diagonal L.
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j)
            s -= l_(i, j) * b[j];
        b[i] = s;
    }
    for (std::size_t i = 0; i < n; ++i)
        b[i] /= d_[i];
    // Backward substitution with L^T.
    for (std::size_t ii = 0; ii < n; ++ii) {
        const std::size_t i = n - 1 - ii;
        double s = b[i];
        for (std::size_t j = i + 1; j < n; ++j)
            s -= l_(j, i) * b[j];
        b[i] = s;
    }
}

void
Ldlt::solveInPlace(MatrixX &b) const
{
    assert(b.rows() == l_.rows());
    const std::size_t n = b.rows();
    const std::size_t m = b.cols();
    double *x = b.data();
    // Row-interleaved: each substitution step updates one row across
    // every right-hand side, so the inner loop runs along contiguous
    // storage. Per element the subtraction order is that of
    // solveInPlace(VectorX) on the column, so results are bitwise
    // equal to solving column by column.
    for (std::size_t i = 0; i < n; ++i) {
        double *xi = x + i * m;
        for (std::size_t j = 0; j < i; ++j) {
            const double lij = l_(i, j);
            const double *xj = x + j * m;
            for (std::size_t c = 0; c < m; ++c)
                xi[c] -= lij * xj[c];
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        double *xi = x + i * m;
        for (std::size_t c = 0; c < m; ++c)
            xi[c] /= d_[i];
    }
    for (std::size_t ii = 0; ii < n; ++ii) {
        const std::size_t i = n - 1 - ii;
        double *xi = x + i * m;
        for (std::size_t j = i + 1; j < n; ++j) {
            const double lji = l_(j, i);
            const double *xj = x + j * m;
            for (std::size_t c = 0; c < m; ++c)
                xi[c] -= lji * xj[c];
        }
    }
}

bool
SmallLdlt::compute(const double *a, int n)
{
    assert(n >= 0 && n <= kMaxDim);
    n_ = n;
    ok_ = true;
    for (int j = 0; j < n; ++j) {
        double dj = a[j * n + j];
        for (int k = 0; k < j; ++k)
            dj -= l_[j * n + k] * l_[j * n + k] * d_[k];
        if (dj == 0.0) {
            ok_ = false;
            return ok_;
        }
        d_[j] = dj;
        l_[j * n + j] = 1.0;
        for (int i = j + 1; i < n; ++i) {
            double s = a[i * n + j];
            for (int k = 0; k < j; ++k)
                s -= l_[i * n + k] * l_[j * n + k] * d_[k];
            l_[i * n + j] = s / dj;
        }
    }
    return ok_;
}

bool
SmallLdlt::compute(const MatrixX &m)
{
    assert(m.rows() == m.cols() &&
           m.rows() <= static_cast<std::size_t>(kMaxDim));
    // MatrixX is row-major and dense, so its data block has exactly
    // the stride compute() expects.
    const int n = static_cast<int>(m.rows());
    double a[kMaxDim * kMaxDim];
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            a[r * n + c] = m(r, c);
    return compute(a, n);
}

void
SmallLdlt::solveInPlace(double *b) const
{
    const int n = n_;
    for (int i = 0; i < n; ++i) {
        double s = b[i];
        for (int j = 0; j < i; ++j)
            s -= l_[i * n + j] * b[j];
        b[i] = s;
    }
    for (int i = 0; i < n; ++i)
        b[i] /= d_[i];
    for (int i = n - 1; i >= 0; --i) {
        double s = b[i];
        for (int j = i + 1; j < n; ++j)
            s -= l_[j * n + i] * b[j];
        b[i] = s;
    }
}

void
SmallLdlt::inverseInto(double *out) const
{
    const int n = n_;
    double col[kMaxDim];
    for (int c = 0; c < n; ++c) {
        for (int i = 0; i < n; ++i)
            col[i] = i == c ? 1.0 : 0.0;
        solveInPlace(col);
        for (int r = 0; r < n; ++r)
            out[r * n + c] = col[r];
    }
}

VectorX
solveLowerTriangular(const MatrixX &l, const VectorX &b)
{
    assert(l.rows() == l.cols() && l.rows() == b.size());
    const std::size_t n = b.size();
    VectorX x(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j)
            s -= l(i, j) * x[j];
        x[i] = s / l(i, i);
    }
    return x;
}

VectorX
solveLowerTriangularTransposed(const MatrixX &l, const VectorX &b)
{
    assert(l.rows() == l.cols() && l.rows() == b.size());
    const std::size_t n = b.size();
    VectorX x(n);
    for (std::size_t ii = 0; ii < n; ++ii) {
        const std::size_t i = n - 1 - ii;
        double s = b[i];
        for (std::size_t j = i + 1; j < n; ++j)
            s -= l(j, i) * x[j];
        x[i] = s / l(i, i);
    }
    return x;
}

} // namespace dadu::linalg
