/**
 * @file
 * Dynamically sized dense matrix/vector types.
 *
 * Used for joint-space quantities whose dimension depends on the
 * robot: the mass matrix M (N x N), its inverse, and the derivative
 * matrices ∂τ/∂u and ∂q̈/∂u (N x 2N). Row-major storage.
 */

#ifndef DADU_LINALG_MATRIXX_H
#define DADU_LINALG_MATRIXX_H

#include <cassert>
#include <cstddef>
#include <vector>

#include "linalg/vec.h"

namespace dadu::linalg {

/** Dynamically sized column vector of doubles. */
class VectorX
{
  public:
    VectorX() = default;

    /** Zero vector of dimension @p n. */
    explicit VectorX(std::size_t n) : data_(n, 0.0) {}

    VectorX(std::initializer_list<double> values) : data_(values) {}

    static VectorX zero(std::size_t n) { return VectorX(n); }

    double &operator[](std::size_t i)
    {
        assert(i < data_.size());
        return data_[i];
    }

    double operator[](std::size_t i) const
    {
        assert(i < data_.size());
        return data_[i];
    }

    std::size_t size() const { return data_.size(); }

    /** Contiguous storage (for the pointer-and-stride kernels). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    void resize(std::size_t n) { data_.assign(n, 0.0); }

    VectorX &
    operator+=(const VectorX &o)
    {
        assert(size() == o.size());
        for (std::size_t i = 0; i < size(); ++i)
            data_[i] += o.data_[i];
        return *this;
    }

    VectorX &
    operator-=(const VectorX &o)
    {
        assert(size() == o.size());
        for (std::size_t i = 0; i < size(); ++i)
            data_[i] -= o.data_[i];
        return *this;
    }

    VectorX &
    operator*=(double s)
    {
        for (double &v : data_)
            v *= s;
        return *this;
    }

    VectorX
    operator+(const VectorX &o) const
    {
        VectorX r = *this;
        r += o;
        return r;
    }

    VectorX
    operator-(const VectorX &o) const
    {
        VectorX r = *this;
        r -= o;
        return r;
    }

    VectorX
    operator-() const
    {
        VectorX r = *this;
        for (double &v : r.data_)
            v = -v;
        return r;
    }

    VectorX
    operator*(double s) const
    {
        VectorX r = *this;
        r *= s;
        return r;
    }

    double
    dot(const VectorX &o) const
    {
        assert(size() == o.size());
        double s = 0.0;
        for (std::size_t i = 0; i < size(); ++i)
            s += data_[i] * o.data_[i];
        return s;
    }

    double
    maxAbs() const
    {
        double m = 0.0;
        for (double v : data_)
            m = std::max(m, std::fabs(v));
        return m;
    }

    double norm() const { return std::sqrt(dot(*this)); }

    /** Contiguous slice [begin, begin+len). */
    VectorX
    segment(std::size_t begin, std::size_t len) const
    {
        assert(begin + len <= size());
        VectorX r(len);
        for (std::size_t i = 0; i < len; ++i)
            r[i] = data_[begin + i];
        return r;
    }

    /** Overwrite slice [begin, begin+v.size()). */
    void
    setSegment(std::size_t begin, const VectorX &v)
    {
        assert(begin + v.size() <= size());
        for (std::size_t i = 0; i < v.size(); ++i)
            data_[begin + i] = v[i];
    }

    /** this = a - b without a temporary; reuses existing capacity. */
    void
    setDifference(const VectorX &a, const VectorX &b)
    {
        assert(a.size() == b.size());
        resize(a.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            data_[i] = a[i] - b[i];
    }

    /** In-place negation. */
    void
    negate()
    {
        for (double &v : data_)
            v = -v;
    }

    void setAll(double c) { data_.assign(data_.size(), c); }

  private:
    std::vector<double> data_;
};

inline VectorX
operator*(double s, const VectorX &v)
{
    return v * s;
}

/** Dynamically sized row-major matrix of doubles. */
class MatrixX
{
  public:
    MatrixX() = default;

    /** Zero matrix of @p r rows and @p c columns. */
    MatrixX(std::size_t r, std::size_t c)
        : rows_(r), cols_(c), data_(r * c, 0.0)
    {}

    static MatrixX zero(std::size_t r, std::size_t c)
    {
        return MatrixX(r, c);
    }

    static MatrixX
    identity(std::size_t n)
    {
        MatrixX m(n, n);
        for (std::size_t i = 0; i < n; ++i)
            m(i, i) = 1.0;
        return m;
    }

    double &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    double
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Row-major storage; the row stride is cols(). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    void
    resize(std::size_t r, std::size_t c)
    {
        rows_ = r;
        cols_ = c;
        data_.assign(r * c, 0.0);
    }

    void setZero() { data_.assign(data_.size(), 0.0); }

    MatrixX &
    operator+=(const MatrixX &o)
    {
        assert(rows_ == o.rows_ && cols_ == o.cols_);
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] += o.data_[i];
        return *this;
    }

    MatrixX &
    operator-=(const MatrixX &o)
    {
        assert(rows_ == o.rows_ && cols_ == o.cols_);
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] -= o.data_[i];
        return *this;
    }

    MatrixX &
    operator*=(double s)
    {
        for (double &v : data_)
            v *= s;
        return *this;
    }

    MatrixX
    operator+(const MatrixX &o) const
    {
        MatrixX r = *this;
        r += o;
        return r;
    }

    MatrixX
    operator-(const MatrixX &o) const
    {
        MatrixX r = *this;
        r -= o;
        return r;
    }

    MatrixX
    operator-() const
    {
        MatrixX r = *this;
        for (double &v : r.data_)
            v = -v;
        return r;
    }

    MatrixX
    operator*(double s) const
    {
        MatrixX r = *this;
        r *= s;
        return r;
    }

    VectorX
    operator*(const VectorX &v) const
    {
        assert(cols_ == v.size());
        VectorX r(rows_);
        for (std::size_t i = 0; i < rows_; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < cols_; ++j)
                s += (*this)(i, j) * v[j];
            r[i] = s;
        }
        return r;
    }

    MatrixX
    operator*(const MatrixX &o) const
    {
        assert(cols_ == o.rows_);
        MatrixX r(rows_, o.cols_);
        for (std::size_t i = 0; i < rows_; ++i) {
            for (std::size_t j = 0; j < cols_; ++j) {
                const double a = (*this)(i, j);
                if (a == 0.0)
                    continue;
                for (std::size_t k = 0; k < o.cols_; ++k)
                    r(i, k) += a * o(j, k);
            }
        }
        return r;
    }

    /**
     * out = (*this) * x without allocating in the steady state
     * (@p out is resized, which reuses its capacity). @p out must not
     * alias @p x. Accumulation order matches operator*, so results
     * are bitwise identical to the allocating product.
     */
    void
    multiplyInto(const VectorX &x, VectorX &out) const
    {
        assert(cols_ == x.size() && &x != &out);
        out.resize(rows_);
        for (std::size_t i = 0; i < rows_; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < cols_; ++j)
                s += (*this)(i, j) * x[j];
            out[i] = s;
        }
    }

    /**
     * out = (*this) * o without allocating in the steady state.
     * @p out must not alias either operand. Bitwise identical to
     * operator* (same zero-skip accumulation order).
     */
    void
    multiplyInto(const MatrixX &o, MatrixX &out) const
    {
        assert(cols_ == o.rows_ && &o != &out && this != &out);
        out.resize(rows_, o.cols_);
        for (std::size_t i = 0; i < rows_; ++i) {
            for (std::size_t j = 0; j < cols_; ++j) {
                const double a = (*this)(i, j);
                if (a == 0.0)
                    continue;
                for (std::size_t k = 0; k < o.cols_; ++k)
                    out(i, k) += a * o(j, k);
            }
        }
    }

    /**
     * out = (*this) * o restricted to the listed columns of o (and
     * of out): out is resized (zero-filled), then only columns in
     * @p cols are accumulated. Per-column accumulation order matches
     * multiplyInto — the listed columns are bitwise identical to the
     * dense product; all other columns stay exactly 0.0.
     */
    void
    multiplyColsInto(const MatrixX &o, MatrixX &out, const int *cols,
                     std::size_t ncols) const
    {
        assert(cols_ == o.rows_ && &o != &out && this != &out);
        out.resize(rows_, o.cols_);
        for (std::size_t i = 0; i < rows_; ++i) {
            for (std::size_t j = 0; j < cols_; ++j) {
                const double a = (*this)(i, j);
                if (a == 0.0)
                    continue;
                for (std::size_t n = 0; n < ncols; ++n) {
                    const auto k = static_cast<std::size_t>(cols[n]);
                    out(i, k) += a * o(j, k);
                }
            }
        }
    }

    /** In-place negation of the listed columns only. */
    void
    negateCols(const int *cols, std::size_t ncols)
    {
        for (std::size_t i = 0; i < rows_; ++i)
            for (std::size_t n = 0; n < ncols; ++n) {
                double &v = (*this)(i, static_cast<std::size_t>(cols[n]));
                v = -v;
            }
    }

    /**
     * out = (*this)ᵀ · x without allocating in the steady state
     * (@p out is resized, reusing capacity, then accumulated into).
     * @p out must not alias @p x. Same zero-skip accumulation
     * contract as multiplyInto, iterating rows of *this so the
     * row-major storage streams in order.
     */
    void
    transposeMultiplyInto(const VectorX &x, VectorX &out) const
    {
        assert(rows_ == x.size() && &x != &out);
        out.resize(cols_);
        for (std::size_t k = 0; k < rows_; ++k) {
            const double v = x[k];
            if (v == 0.0)
                continue;
            for (std::size_t i = 0; i < cols_; ++i)
                out[i] += (*this)(k, i) * v;
        }
    }

    /**
     * out = (*this)ᵀ · o without allocating in the steady state.
     * @p out must not alias either operand.
     */
    void
    transposeMultiplyInto(const MatrixX &o, MatrixX &out) const
    {
        assert(rows_ == o.rows_ && &o != &out && this != &out);
        out.resize(cols_, o.cols_);
        for (std::size_t k = 0; k < rows_; ++k) {
            for (std::size_t i = 0; i < cols_; ++i) {
                const double v = (*this)(k, i);
                if (v == 0.0)
                    continue;
                for (std::size_t j = 0; j < o.cols_; ++j)
                    out(i, j) += v * o(k, j);
            }
        }
    }

    /** In-place negation of every entry. */
    void
    negate()
    {
        for (double &v : data_)
            v = -v;
    }

    MatrixX
    transpose() const
    {
        MatrixX r(cols_, rows_);
        for (std::size_t i = 0; i < rows_; ++i)
            for (std::size_t j = 0; j < cols_; ++j)
                r(j, i) = (*this)(i, j);
        return r;
    }

    double
    maxAbs() const
    {
        double m = 0.0;
        for (double v : data_)
            m = std::max(m, std::fabs(v));
        return m;
    }

    VectorX
    col(std::size_t c) const
    {
        VectorX v(rows_);
        for (std::size_t i = 0; i < rows_; ++i)
            v[i] = (*this)(i, c);
        return v;
    }

    VectorX
    row(std::size_t r) const
    {
        VectorX v(cols_);
        for (std::size_t j = 0; j < cols_; ++j)
            v[j] = (*this)(r, j);
        return v;
    }

    void
    setCol(std::size_t c, const VectorX &v)
    {
        assert(v.size() == rows_);
        for (std::size_t i = 0; i < rows_; ++i)
            (*this)(i, c) = v[i];
    }

    /** Rectangular block copy of size (h, w) starting at (r, c). */
    MatrixX
    block(std::size_t r, std::size_t c, std::size_t h, std::size_t w) const
    {
        assert(r + h <= rows_ && c + w <= cols_);
        MatrixX m(h, w);
        for (std::size_t i = 0; i < h; ++i)
            for (std::size_t j = 0; j < w; ++j)
                m(i, j) = (*this)(r + i, c + j);
        return m;
    }

    /** Overwrite a block starting at (r, c) with @p m. */
    void
    setBlock(std::size_t r, std::size_t c, const MatrixX &m)
    {
        assert(r + m.rows() <= rows_ && c + m.cols() <= cols_);
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                (*this)(r + i, c + j) = m(i, j);
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

inline MatrixX
operator*(double s, const MatrixX &m)
{
    return m * s;
}

} // namespace dadu::linalg

#endif // DADU_LINALG_MATRIXX_H
