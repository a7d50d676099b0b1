/**
 * @file
 * Lane-pack primitives for the structure-of-arrays dynamics kernels.
 *
 * A Pack<W> holds one scalar field of W independent sample points,
 * contiguous in memory, so every arithmetic operator is a fixed
 * trip-count elementwise loop the compiler auto-vectorizes across
 * the batch dimension — the CPU analogue of the paper accelerator's
 * pipelined function units keeping W evaluations in flight.
 *
 * Bitwise contract: every operation here mirrors its scalar
 * counterpart in src/linalg/ and src/spatial/ expression by
 * expression, in the same order, including accumulations that start
 * from literal 0.0 and the sign conventions of the constant-folded
 * cross products. Elementwise IEEE-754 arithmetic is identical lane
 * by lane to the scalar sequence (the build disables FP contraction),
 * so lane l of any SoA kernel is bitwise equal to the scalar kernel
 * run on point l — which is also what makes the batched results
 * invariant under the lane width W.
 *
 * Data-dependent scalar branches (the `dk == 0.0` skip of the
 * U·D⁻¹·Uᵀ update, the zero-skip of MatrixX::multiplyInto) become
 * per-lane selects (addUnlessZero / subUnlessZero): a compare+blend
 * reproduces the skip semantics exactly, including the -0.0 cases
 * the scalar skip avoids touching.
 *
 * Everything here lives in the namespace of the lane-kernel build
 * that includes it (soa::base or soa::v4, named by DADU_ISA; see
 * soa/kernels.cc), so the two builds never share a template instance.
 */

#ifndef DADU_ALGORITHMS_SOA_PACK_H
#define DADU_ALGORITHMS_SOA_PACK_H

#include <cstddef>

#include "linalg/mat.h"
#include "linalg/vec.h"
#include "model/joint.h"
#include "spatial/inertia.h"
#include "spatial/transform.h"

#ifndef DADU_ISA
#error "soa/pack.h belongs to a lane-kernel build: define DADU_ISA"
#endif

namespace dadu::algo::soa::DADU_ISA {

using linalg::Mat3;
using linalg::Mat66;
using linalg::Vec3;
using linalg::Vec6;

/**
 * W doubles of one field, one per sample point. Alignment is
 * min(W*8, 64): a full cache line once the pack spans one, but never
 * more than sizeof so arrays of packs stay dense (alignas(64) on a
 * Pack<4> would pad 32 -> 64 bytes and break the SoA layout).
 */
template <int W>
struct alignas((W * 8 < 64) ? W * 8 : 64) Pack
{
    static_assert(W == 4 || W == 8 || W == 16, "supported lane widths");

    double l[W];

    static Pack
    broadcast(double s)
    {
        Pack p;
        for (int i = 0; i < W; ++i)
            p.l[i] = s;
        return p;
    }

    static Pack zero() { return broadcast(0.0); }

    Pack &
    operator+=(const Pack &o)
    {
        for (int i = 0; i < W; ++i)
            l[i] += o.l[i];
        return *this;
    }

    Pack &
    operator-=(const Pack &o)
    {
        for (int i = 0; i < W; ++i)
            l[i] -= o.l[i];
        return *this;
    }
};

template <int W>
inline Pack<W>
operator+(const Pack<W> &a, const Pack<W> &b)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = a.l[i] + b.l[i];
    return r;
}

template <int W>
inline Pack<W>
operator-(const Pack<W> &a, const Pack<W> &b)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = a.l[i] - b.l[i];
    return r;
}

template <int W>
inline Pack<W>
operator*(const Pack<W> &a, const Pack<W> &b)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = a.l[i] * b.l[i];
    return r;
}

template <int W>
inline Pack<W>
operator/(const Pack<W> &a, const Pack<W> &b)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = a.l[i] / b.l[i];
    return r;
}

template <int W>
inline Pack<W>
operator-(const Pack<W> &a)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = -a.l[i];
    return r;
}

template <int W>
inline Pack<W>
operator*(const Pack<W> &a, double s)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = a.l[i] * s;
    return r;
}

template <int W>
inline Pack<W>
operator*(double s, const Pack<W> &a)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = s * a.l[i];
    return r;
}

template <int W>
inline Pack<W>
operator/(double s, const Pack<W> &a)
{
    Pack<W> r;
    for (int i = 0; i < W; ++i)
        r.l[i] = s / a.l[i];
    return r;
}

/**
 * x += p on the lanes where c != 0.0 — the per-lane form of the
 * scalar zero-skip `if (c == 0.0) continue; x += ...` (vectorizes to
 * compare+blend). Lanes with c == 0 keep x untouched, exactly like
 * the scalar skip.
 */
template <int W>
inline void
addUnlessZero(Pack<W> &x, const Pack<W> &c, const Pack<W> &p)
{
    for (int i = 0; i < W; ++i)
        x.l[i] = c.l[i] == 0.0 ? x.l[i] : x.l[i] + p.l[i];
}

/** x -= p on the lanes where c != 0.0 (see addUnlessZero). */
template <int W>
inline void
subUnlessZero(Pack<W> &x, const Pack<W> &c, const Pack<W> &p)
{
    for (int i = 0; i < W; ++i)
        x.l[i] = c.l[i] == 0.0 ? x.l[i] : x.l[i] - p.l[i];
}

/**
 * True when some lane of c is exactly 0.0. When it returns false, a
 * plain += / -= is bitwise identical to the UnlessZero blends above
 * (every lane takes the arithmetic branch), so hot loops can test the
 * multiplier once and drop the per-element compare+blend.
 */
template <int W>
inline bool
anyZero(const Pack<W> &c)
{
    bool any = false;
    for (int i = 0; i < W; ++i)
        any = any || c.l[i] == 0.0;
    return any;
}

// --------------------------------------------------------------- vectors

/** Lane-packed 3-vector (mirror of linalg::Vec3). */
template <int W>
struct PVec3
{
    Pack<W> e[3];

    static PVec3
    zero()
    {
        PVec3 v;
        for (int i = 0; i < 3; ++i)
            v.e[i] = Pack<W>::zero();
        return v;
    }

    PVec3 &
    operator+=(const PVec3 &o)
    {
        for (int i = 0; i < 3; ++i)
            e[i] += o.e[i];
        return *this;
    }
};

template <int W>
inline PVec3<W>
operator+(const PVec3<W> &a, const PVec3<W> &b)
{
    PVec3<W> r;
    for (int i = 0; i < 3; ++i)
        r.e[i] = a.e[i] + b.e[i];
    return r;
}

template <int W>
inline PVec3<W>
operator-(const PVec3<W> &a, const PVec3<W> &b)
{
    PVec3<W> r;
    for (int i = 0; i < 3; ++i)
        r.e[i] = a.e[i] - b.e[i];
    return r;
}

/** Lane-packed 6-vector (mirror of linalg::Vec6). */
template <int W>
struct PVec6
{
    Pack<W> e[6];

    static PVec6
    zero()
    {
        PVec6 v;
        for (int i = 0; i < 6; ++i)
            v.e[i] = Pack<W>::zero();
        return v;
    }

    static PVec6
    broadcast(const Vec6 &s)
    {
        PVec6 v;
        for (int i = 0; i < 6; ++i)
            v.e[i] = Pack<W>::broadcast(s[i]);
        return v;
    }

    PVec6 &
    operator+=(const PVec6 &o)
    {
        for (int i = 0; i < 6; ++i)
            e[i] += o.e[i];
        return *this;
    }

    PVec6 &
    operator-=(const PVec6 &o)
    {
        for (int i = 0; i < 6; ++i)
            e[i] -= o.e[i];
        return *this;
    }

    /** Mirror of Vec6::dot (accumulates from 0.0, ascending). */
    Pack<W>
    dot(const PVec6 &o) const
    {
        Pack<W> s = Pack<W>::zero();
        for (int i = 0; i < 6; ++i)
            s += e[i] * o.e[i];
        return s;
    }
};

template <int W>
inline PVec6<W>
operator+(const PVec6<W> &a, const PVec6<W> &b)
{
    PVec6<W> r;
    for (int i = 0; i < 6; ++i)
        r.e[i] = a.e[i] + b.e[i];
    return r;
}

template <int W>
inline PVec6<W>
operator-(const PVec6<W> &a, const PVec6<W> &b)
{
    PVec6<W> r;
    for (int i = 0; i < 6; ++i)
        r.e[i] = a.e[i] - b.e[i];
    return r;
}

/** v * s with a per-lane scalar (mirror of Vec6 * double). */
template <int W>
inline PVec6<W>
operator*(const PVec6<W> &v, const Pack<W> &s)
{
    PVec6<W> r;
    for (int i = 0; i < 6; ++i)
        r.e[i] = v.e[i] * s;
    return r;
}

/** Broadcast Vec6 times a per-lane scalar (s.col(k) * qdd_r). */
template <int W>
inline PVec6<W>
broadcastScaled(const Vec6 &c, const Pack<W> &s)
{
    PVec6<W> r;
    for (int i = 0; i < 6; ++i)
        r.e[i] = c[i] * s;
    return r;
}

/** Mirror of Vec6::dot with a broadcast left operand (Sᵀ f). */
template <int W>
inline Pack<W>
dotBroadcast(const Vec6 &c, const PVec6<W> &f)
{
    Pack<W> s = Pack<W>::zero();
    for (int i = 0; i < 6; ++i)
        s += c[i] * f.e[i];
    return s;
}

/** 3D cross, both operands lane-packed (mirror of linalg::cross). */
template <int W>
inline PVec3<W>
cross(const PVec3<W> &a, const PVec3<W> &b)
{
    PVec3<W> r;
    r.e[0] = a.e[1] * b.e[2] - a.e[2] * b.e[1];
    r.e[1] = a.e[2] * b.e[0] - a.e[0] * b.e[2];
    r.e[2] = a.e[0] * b.e[1] - a.e[1] * b.e[0];
    return r;
}

/** 3D cross, broadcast left operand (h × v of the inertia apply). */
template <int W>
inline PVec3<W>
cross(const Vec3 &a, const PVec3<W> &b)
{
    PVec3<W> r;
    r.e[0] = a[1] * b.e[2] - a[2] * b.e[1];
    r.e[1] = a[2] * b.e[0] - a[0] * b.e[2];
    r.e[2] = a[0] * b.e[1] - a[1] * b.e[0];
    return r;
}

/** 3D cross, broadcast right operand. */
template <int W>
inline PVec3<W>
cross(const PVec3<W> &a, const Vec3 &b)
{
    PVec3<W> r;
    r.e[0] = a.e[1] * b[2] - a.e[2] * b[1];
    r.e[1] = a.e[2] * b[0] - a.e[0] * b[2];
    r.e[2] = a.e[0] * b[1] - a.e[1] * b[0];
    return r;
}

template <int W>
inline PVec3<W>
topHalf(const PVec6<W> &v)
{
    PVec3<W> r;
    for (int i = 0; i < 3; ++i)
        r.e[i] = v.e[i];
    return r;
}

template <int W>
inline PVec3<W>
bottomHalf(const PVec6<W> &v)
{
    PVec3<W> r;
    for (int i = 0; i < 3; ++i)
        r.e[i] = v.e[i + 3];
    return r;
}

template <int W>
inline PVec6<W>
join(const PVec3<W> &top, const PVec3<W> &bottom)
{
    PVec6<W> r;
    for (int i = 0; i < 3; ++i) {
        r.e[i] = top.e[i];
        r.e[i + 3] = bottom.e[i];
    }
    return r;
}

// -------------------------------------------------------------- matrices

/** Lane-packed 3x3 matrix, row-major (mirror of linalg::Mat3). */
template <int W>
struct PMat3
{
    Pack<W> m[9];

    Pack<W> &operator()(int r, int c) { return m[r * 3 + c]; }
    const Pack<W> &operator()(int r, int c) const { return m[r * 3 + c]; }

    /** Mirror of Mat3 * Vec3 (zero-seeded ascending accumulation). */
    PVec3<W>
    operator*(const PVec3<W> &v) const
    {
        PVec3<W> r;
        for (int i = 0; i < 3; ++i) {
            Pack<W> s = Pack<W>::zero();
            for (int j = 0; j < 3; ++j)
                s += (*this)(i, j) * v.e[j];
            r.e[i] = s;
        }
        return r;
    }

    /**
     * Mirror of e.transpose() * v: the scalar code materializes the
     * transpose then multiplies, accumulating e(j,i)·v[j] ascending.
     */
    PVec3<W>
    transposeMul(const PVec3<W> &v) const
    {
        PVec3<W> r;
        for (int i = 0; i < 3; ++i) {
            Pack<W> s = Pack<W>::zero();
            for (int j = 0; j < 3; ++j)
                s += (*this)(j, i) * v.e[j];
            r.e[i] = s;
        }
        return r;
    }

    /** Mirror of Mat3 * Mat3. */
    PMat3
    operator*(const PMat3 &o) const
    {
        PMat3 r;
        for (int i = 0; i < 3; ++i) {
            for (int k = 0; k < 3; ++k) {
                Pack<W> s = Pack<W>::zero();
                for (int j = 0; j < 3; ++j)
                    s += (*this)(i, j) * o(j, k);
                r(i, k) = s;
            }
        }
        return r;
    }
};

/** Mirror of linalg::skew. */
template <int W>
inline PMat3<W>
skew(const PVec3<W> &v)
{
    PMat3<W> m;
    const Pack<W> z = Pack<W>::zero();
    m(0, 0) = z;
    m(0, 1) = -v.e[2];
    m(0, 2) = v.e[1];
    m(1, 0) = v.e[2];
    m(1, 1) = z;
    m(1, 2) = -v.e[0];
    m(2, 0) = -v.e[1];
    m(2, 1) = v.e[0];
    m(2, 2) = z;
    return m;
}

/** Lane-packed 6x6 matrix, row-major (mirror of linalg::Mat66). */
template <int W>
struct PMat66
{
    Pack<W> m[36];

    Pack<W> &operator()(int r, int c) { return m[r * 6 + c]; }
    const Pack<W> &operator()(int r, int c) const { return m[r * 6 + c]; }

    static PMat66
    broadcast(const Mat66 &s)
    {
        PMat66 r;
        for (int i = 0; i < 6; ++i)
            for (int j = 0; j < 6; ++j)
                r(i, j) = Pack<W>::broadcast(s(i, j));
        return r;
    }

    /** Mirror of Mat66 += Mat66 with a broadcast right operand. */
    PMat66 &
    addBroadcast(const Mat66 &o)
    {
        for (int i = 0; i < 6; ++i)
            for (int j = 0; j < 6; ++j)
                (*this)(i, j) += Pack<W>::broadcast(o(i, j));
        return *this;
    }

    PMat66 &
    operator+=(const PMat66 &o)
    {
        for (int i = 0; i < 36; ++i)
            m[i] += o.m[i];
        return *this;
    }

    /** Mirror of Mat66 * Vec6 with a broadcast vector (I^A S_k). */
    PVec6<W>
    mulBroadcast(const Vec6 &v) const
    {
        PVec6<W> r;
        for (int i = 0; i < 6; ++i) {
            Pack<W> s = Pack<W>::zero();
            for (int j = 0; j < 6; ++j)
                s += (*this)(i, j) * v[j];
            r.e[i] = s;
        }
        return r;
    }

    /** Mirror of Mat66 * Vec6. */
    PVec6<W>
    operator*(const PVec6<W> &v) const
    {
        PVec6<W> r;
        for (int i = 0; i < 6; ++i) {
            Pack<W> s = Pack<W>::zero();
            for (int j = 0; j < 6; ++j)
                s += (*this)(i, j) * v.e[j];
            r.e[i] = s;
        }
        return r;
    }

    /** Mirror of Mat66 * Mat66. */
    PMat66
    operator*(const PMat66 &o) const
    {
        PMat66 r;
        for (int i = 0; i < 6; ++i) {
            for (int k = 0; k < 6; ++k) {
                Pack<W> s = Pack<W>::zero();
                for (int j = 0; j < 6; ++j)
                    s += (*this)(i, j) * o(j, k);
                r(i, k) = s;
            }
        }
        return r;
    }

    /**
     * Mirror of x.transpose() * o: the scalar code materializes the
     * transpose then runs the dense product, so entry (i,k)
     * accumulates x(j,i)·o(j,k) ascending in j.
     */
    PMat66
    transposeMul(const PMat66 &o) const
    {
        PMat66 r;
        for (int i = 0; i < 6; ++i) {
            for (int k = 0; k < 6; ++k) {
                Pack<W> s = Pack<W>::zero();
                for (int j = 0; j < 6; ++j)
                    s += (*this)(j, i) * o(j, k);
                r(i, k) = s;
            }
        }
        return r;
    }
};

/** Mirror of linalg::blocks66. */
template <int W>
inline PMat66<W>
blocks66(const PMat3<W> &tl, const PMat3<W> &tr, const PMat3<W> &bl,
         const PMat3<W> &br)
{
    PMat66<W> m;
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            m(i, j) = tl(i, j);
            m(i, j + 3) = tr(i, j);
            m(i + 3, j) = bl(i, j);
            m(i + 3, j + 3) = br(i, j);
        }
    }
    return m;
}

// ---------------------------------------------------- spatial operators

/** Mirror of spatial::crossMotion, both operands packed. */
template <int W>
inline PVec6<W>
crossMotion(const PVec6<W> &v, const PVec6<W> &w)
{
    const PVec3<W> omega = topHalf(v);
    const PVec3<W> vlin = bottomHalf(v);
    const PVec3<W> womega = topHalf(w);
    const PVec3<W> wlin = bottomHalf(w);
    return join(cross(omega, womega),
                cross(omega, wlin) + cross(vlin, womega));
}

/** Mirror of spatial::crossMotion with a broadcast right operand. */
template <int W>
inline PVec6<W>
crossMotion(const PVec6<W> &v, const Vec6 &w)
{
    const PVec3<W> omega = topHalf(v);
    const PVec3<W> vlin = bottomHalf(v);
    const Vec3 womega = linalg::topHalf(w);
    const Vec3 wlin = linalg::bottomHalf(w);
    return join(cross(omega, womega),
                cross(omega, wlin) + cross(vlin, womega));
}

/** Mirror of spatial::crossMotion with a broadcast left operand. */
template <int W>
inline PVec6<W>
crossMotion(const Vec6 &v, const PVec6<W> &w)
{
    const Vec3 omega = linalg::topHalf(v);
    const Vec3 vlin = linalg::bottomHalf(v);
    const PVec3<W> womega = topHalf(w);
    const PVec3<W> wlin = bottomHalf(w);
    return join(cross(omega, womega),
                cross(omega, wlin) + cross(vlin, womega));
}

/** Mirror of spatial::crossForce, both operands packed. */
template <int W>
inline PVec6<W>
crossForce(const PVec6<W> &v, const PVec6<W> &f)
{
    const PVec3<W> omega = topHalf(v);
    const PVec3<W> vlin = bottomHalf(v);
    const PVec3<W> n = topHalf(f);
    const PVec3<W> flin = bottomHalf(f);
    return join(cross(omega, n) + cross(vlin, flin),
                cross(omega, flin));
}

/** Mirror of spatial::crossForce with a broadcast motion vector. */
template <int W>
inline PVec6<W>
crossForce(const Vec6 &v, const PVec6<W> &f)
{
    const Vec3 omega = linalg::topHalf(v);
    const Vec3 vlin = linalg::bottomHalf(v);
    const PVec3<W> n = topHalf(f);
    const PVec3<W> flin = bottomHalf(f);
    return join(cross(omega, n) + cross(vlin, flin),
                cross(omega, flin));
}

/** Mirror of spatial::crossMotionUnitScaled with a per-lane scale. */
template <int W>
inline PVec6<W>
crossMotionUnitScaled(const PVec6<W> &v, int axis, const Pack<W> &s)
{
    PVec6<W> r = PVec6<W>::zero();
    switch (axis) {
      case 0:
        r.e[1] = s * v.e[2];
        r.e[2] = -(s * v.e[1]);
        r.e[4] = s * v.e[5];
        r.e[5] = -(s * v.e[4]);
        break;
      case 1:
        r.e[0] = -(s * v.e[2]);
        r.e[2] = s * v.e[0];
        r.e[3] = -(s * v.e[5]);
        r.e[5] = s * v.e[3];
        break;
      case 2:
        r.e[0] = s * v.e[1];
        r.e[1] = -(s * v.e[0]);
        r.e[3] = s * v.e[4];
        r.e[4] = -(s * v.e[3]);
        break;
      case 3:
        r.e[4] = s * v.e[2];
        r.e[5] = -(s * v.e[1]);
        break;
      case 4:
        r.e[3] = -(s * v.e[2]);
        r.e[5] = s * v.e[0];
        break;
      default:
        r.e[3] = s * v.e[1];
        r.e[4] = -(s * v.e[0]);
        break;
    }
    return r;
}

/** Mirror of spatial::crossMotionUnit. */
template <int W>
inline PVec6<W>
crossMotionUnit(const PVec6<W> &v, int axis)
{
    PVec6<W> r = PVec6<W>::zero();
    switch (axis) {
      case 0:
        r.e[1] = v.e[2];
        r.e[2] = -v.e[1];
        r.e[4] = v.e[5];
        r.e[5] = -v.e[4];
        break;
      case 1:
        r.e[0] = -v.e[2];
        r.e[2] = v.e[0];
        r.e[3] = -v.e[5];
        r.e[5] = v.e[3];
        break;
      case 2:
        r.e[0] = v.e[1];
        r.e[1] = -v.e[0];
        r.e[3] = v.e[4];
        r.e[4] = -v.e[3];
        break;
      case 3:
        r.e[4] = v.e[2];
        r.e[5] = -v.e[1];
        break;
      case 4:
        r.e[3] = -v.e[2];
        r.e[5] = v.e[0];
        break;
      default:
        r.e[3] = v.e[1];
        r.e[4] = -v.e[0];
        break;
    }
    return r;
}

/**
 * Lane-packed Plücker transform (mirror of spatial::SpatialTransform:
 * rotation E and translation r vary per lane — the joint trigonometry
 * is evaluated per lane by the scalar linkTransform and scattered in).
 */
template <int W>
struct PTransform
{
    PMat3<W> e;
    PVec3<W> r;

    /** Scatter one lane's transform into the pack. */
    void
    setLane(int lane, const spatial::SpatialTransform &x)
    {
        const Mat3 &rot = x.rotationPart();
        const Vec3 &tr = x.translationPart();
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j)
                e(i, j).l[lane] = rot(i, j);
            r.e[i].l[lane] = tr[i];
        }
    }

    /** Mirror of SpatialTransform::applyMotion. */
    PVec6<W>
    applyMotion(const PVec6<W> &v) const
    {
        const PVec3<W> omega = topHalf(v);
        const PVec3<W> vlin = bottomHalf(v);
        return join(e * omega, e * (vlin - cross(r, omega)));
    }

    /** applyMotion of a broadcast vector (gravity at the base). */
    PVec6<W>
    applyMotionBroadcast(const Vec6 &v) const
    {
        return applyMotion(PVec6<W>::broadcast(v));
    }

    /** Mirror of SpatialTransform::applyTransposeForce. */
    PVec6<W>
    applyTransposeForce(const PVec6<W> &f) const
    {
        const PVec3<W> n = e.transposeMul(topHalf(f));
        const PVec3<W> flin = e.transposeMul(bottomHalf(f));
        return join(n + cross(r, flin), flin);
    }

    /** Mirror of SpatialTransform::toMatrix. */
    PMat66<W>
    toMatrix() const
    {
        const PMat3<W> erx = e * skew(r);
        PMat3<W> nerx;
        for (int i = 0; i < 9; ++i)
            nerx.m[i] = -erx.m[i];
        PMat3<W> zero3;
        for (int i = 0; i < 9; ++i)
            zero3.m[i] = Pack<W>::zero();
        return blocks66(e, zero3, nerx, e);
    }
};

// -------------------------------------------------- broadcast operators

/**
 * Mirror of SpatialInertia::apply for a broadcast (model-constant)
 * inertia and a lane-packed motion vector.
 */
template <int W>
inline PVec6<W>
inertiaApply(const spatial::SpatialInertia &si, const PVec6<W> &v)
{
    const PVec3<W> omega = topHalf(v);
    const PVec3<W> vlin = bottomHalf(v);
    const Mat3 &ibar = si.rotationalInertia();
    const Vec3 &h = si.firstMoment();
    const double mass = si.mass();

    PVec3<W> iw;
    for (int i = 0; i < 3; ++i) {
        Pack<W> s = Pack<W>::zero();
        for (int j = 0; j < 3; ++j)
            s += ibar(i, j) * omega.e[j];
        iw.e[i] = s;
    }
    PVec3<W> mv;
    for (int i = 0; i < 3; ++i)
        mv.e[i] = vlin.e[i] * mass;
    return join(iw + cross(h, vlin), mv - cross(h, omega));
}

/**
 * Mirror of MotionSubspace::applySegment: S q̇ read from lane packs
 * at the joint's DOF offset (zero-seeded column accumulation).
 */
template <int W>
inline PVec6<W>
applySegment(const model::MotionSubspace &s, const Pack<W> *seg)
{
    PVec6<W> v = PVec6<W>::zero();
    for (int i = 0; i < s.nv(); ++i) {
        const Vec6 &c = s.col(i);
        for (int a = 0; a < 6; ++a)
            v.e[a] += c[a] * seg[i];
    }
    return v;
}

// ------------------------------------------------------------ small LDLT

/**
 * Lane-parallel mirror of linalg::SmallLdlt (the non-pivoting joint-
 * space D_i factorization, n <= 6). One difference: the scalar code
 * early-outs on a zero pivot; lanes cannot return independently, so
 * a zero pivot lane divides through to inf/nan instead — it mirrors
 * a scalar factorization failure, which the SPD D_i blocks of
 * ABA/MMinvGen never produce (and the scalar callers never check).
 */
template <int W>
struct PackSmallLdlt
{
    Pack<W> fac[36];
    Pack<W> d[6];
    int n = 0;

    void
    compute(const Pack<W> *a, int dim)
    {
        n = dim;
        for (int j = 0; j < n; ++j) {
            Pack<W> dj = a[j * n + j];
            for (int k = 0; k < j; ++k)
                dj -= fac[j * n + k] * fac[j * n + k] * d[k];
            d[j] = dj;
            fac[j * n + j] = Pack<W>::broadcast(1.0);
            for (int i = j + 1; i < n; ++i) {
                Pack<W> s = a[i * n + j];
                for (int k = 0; k < j; ++k)
                    s -= fac[i * n + k] * fac[j * n + k] * d[k];
                fac[i * n + j] = s / dj;
            }
        }
    }

    void
    solveInPlace(Pack<W> *b) const
    {
        for (int i = 0; i < n; ++i) {
            Pack<W> s = b[i];
            for (int j = 0; j < i; ++j)
                s -= fac[i * n + j] * b[j];
            b[i] = s;
        }
        for (int i = 0; i < n; ++i)
            b[i] = b[i] / d[i];
        for (int i = n - 1; i >= 0; --i) {
            Pack<W> s = b[i];
            for (int j = i + 1; j < n; ++j)
                s -= fac[j * n + i] * b[j];
            b[i] = s;
        }
    }

    void
    inverseInto(Pack<W> *out) const
    {
        Pack<W> col[6];
        for (int c = 0; c < n; ++c) {
            for (int i = 0; i < n; ++i)
                col[i] = Pack<W>::broadcast(i == c ? 1.0 : 0.0);
            solveInPlace(col);
            for (int r = 0; r < n; ++r)
                out[r * n + c] = col[r];
        }
    }
};

} // namespace dadu::algo::soa::DADU_ISA

#endif // DADU_ALGORITHMS_SOA_PACK_H
