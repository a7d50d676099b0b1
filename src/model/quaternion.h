/**
 * @file
 * Minimal unit-quaternion type for spherical and floating joints.
 *
 * Convention: the quaternion stores the orientation of the child
 * frame in the parent frame, i.e. R(q) rotates child-frame vectors
 * into parent-frame coordinates. The Plücker rotation E used by the
 * spatial transforms is then R^T.
 */

#ifndef DADU_MODEL_QUATERNION_H
#define DADU_MODEL_QUATERNION_H

#include <cmath>

#include "linalg/mat.h"
#include "linalg/vec.h"

namespace dadu::model {

using linalg::Mat3;
using linalg::Vec3;

/**
 * Keeps GCC's SLP vectorizer off a quaternion product. Its sign
 * pattern alternates across the four components, and GCC 12's SLP
 * pass turns such an add/subtract of products into vfmaddsub at
 * -march=x86-64-v3 and above although the build passes
 * -ffp-contract=off: one rounding instead of two, so the bits of
 * RobotModel::integrate and difference would depend on the target.
 * Without SLP every product rounds on its own at any -march, as in
 * the default (SSE2) build. Other compilers honour -ffp-contract=off.
 */
#if defined(__GNUC__) && !defined(__clang__)
#define DADU_NO_SLP __attribute__((optimize("no-tree-slp-vectorize")))
#else
#define DADU_NO_SLP
#endif

/** Unit quaternion (x, y, z, w). */
struct Quaternion
{
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
    double w = 1.0;

    static Quaternion identity() { return {}; }

    /** Quaternion for a rotation of @p angle about unit @p axis. */
    static Quaternion
    fromAxisAngle(const Vec3 &axis, double angle)
    {
        const double h = 0.5 * angle;
        const double s = std::sin(h);
        return {axis[0] * s, axis[1] * s, axis[2] * s, std::cos(h)};
    }

    /** Rotation matrix R: child-frame vectors -> parent frame. */
    Mat3
    toRotation() const
    {
        const double xx = x * x, yy = y * y, zz = z * z;
        const double xy = x * y, xz = x * z, yz = y * z;
        const double wx = w * x, wy = w * y, wz = w * z;
        return Mat3{1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
                    2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
                    2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)};
    }

    /** Hamilton product (*this) ∘ other. */
    DADU_NO_SLP Quaternion
    operator*(const Quaternion &o) const
    {
        return {w * o.x + x * o.w + y * o.z - z * o.y,
                w * o.y - x * o.z + y * o.w + z * o.x,
                w * o.z + x * o.y - y * o.x + z * o.w,
                w * o.w - x * o.x - y * o.y - z * o.z};
    }

    /** Renormalize to a unit quaternion. */
    void
    normalize()
    {
        const double n = std::sqrt(x * x + y * y + z * z + w * w);
        if (n > 0.0) {
            x /= n;
            y /= n;
            z /= n;
            w /= n;
        }
    }

    /**
     * Right-multiply by the exponential of a body-frame rotation
     * vector: q' = q ∘ exp(ω/2). This is the local-frame integration
     * convention the analytical derivatives are expressed in.
     */
    Quaternion
    integrated(const Vec3 &omega) const
    {
        const double angle = omega.norm();
        Quaternion dq;
        if (angle < 1e-12) {
            dq = {0.5 * omega[0], 0.5 * omega[1], 0.5 * omega[2], 1.0};
        } else {
            const Vec3 axis = omega * (1.0 / angle);
            dq = fromAxisAngle(axis, angle);
        }
        Quaternion r = (*this) * dq;
        r.normalize();
        return r;
    }
};

} // namespace dadu::model

#endif // DADU_MODEL_QUATERNION_H
