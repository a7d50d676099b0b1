#include "model/joint.h"

#include <cassert>

namespace dadu::model {

const char *
jointTypeName(JointType t)
{
    switch (t) {
      case JointType::RevoluteX: return "revolute_x";
      case JointType::RevoluteY: return "revolute_y";
      case JointType::RevoluteZ: return "revolute_z";
      case JointType::PrismaticX: return "prismatic_x";
      case JointType::PrismaticY: return "prismatic_y";
      case JointType::PrismaticZ: return "prismatic_z";
      case JointType::Spherical: return "spherical";
      case JointType::Translation3: return "translation3";
      case JointType::Floating: return "floating";
    }
    return "unknown";
}

int
jointNq(JointType t)
{
    switch (t) {
      case JointType::Spherical: return 4;
      case JointType::Translation3: return 3;
      case JointType::Floating: return 7;
      default: return 1;
    }
}

int
jointNv(JointType t)
{
    switch (t) {
      case JointType::Spherical: return 3;
      case JointType::Translation3: return 3;
      case JointType::Floating: return 6;
      default: return 1;
    }
}

bool
isRevolute(JointType t)
{
    return t == JointType::RevoluteX || t == JointType::RevoluteY ||
           t == JointType::RevoluteZ;
}

bool
isPrismatic(JointType t)
{
    return t == JointType::PrismaticX || t == JointType::PrismaticY ||
           t == JointType::PrismaticZ;
}

MotionSubspace
MotionSubspace::forType(JointType t)
{
    MotionSubspace s;
    s.nv_ = jointNv(t);
    switch (t) {
      case JointType::RevoluteX:
        s.cols_[0] = Vec6::unit(0);
        break;
      case JointType::RevoluteY:
        s.cols_[0] = Vec6::unit(1);
        break;
      case JointType::RevoluteZ:
        s.cols_[0] = Vec6::unit(2);
        break;
      case JointType::PrismaticX:
        s.cols_[0] = Vec6::unit(3);
        break;
      case JointType::PrismaticY:
        s.cols_[0] = Vec6::unit(4);
        break;
      case JointType::PrismaticZ:
        s.cols_[0] = Vec6::unit(5);
        break;
      case JointType::Spherical:
        for (int i = 0; i < 3; ++i)
            s.cols_[i] = Vec6::unit(i);
        break;
      case JointType::Translation3:
        for (int i = 0; i < 3; ++i)
            s.cols_[i] = Vec6::unit(3 + i);
        break;
      case JointType::Floating:
        for (int i = 0; i < 6; ++i)
            s.cols_[i] = Vec6::unit(i);
        break;
    }
    // Detect one-hot columns (true for every current joint type) so
    // the algorithms can fold S projections into element reads.
    for (int c = 0; c < s.nv_; ++c) {
        int axis = -1;
        bool one_hot = true;
        for (int a = 0; a < 6; ++a) {
            const double v = s.cols_[c][a];
            if (v == 0.0)
                continue;
            if (v == 1.0 && axis == -1)
                axis = a;
            else
                one_hot = false;
        }
        s.axes_[c] = one_hot && axis != -1 ? axis : -1;
    }
    return s;
}

SpatialTransform
jointTransform(JointType t, const VectorX &q)
{
    assert(static_cast<int>(q.size()) == jointNq(t));
    return jointTransformAt(t, q, 0);
}

SpatialTransform
jointTransformAt(JointType t, const VectorX &q, int qIndex)
{
    assert(qIndex + jointNq(t) <= static_cast<int>(q.size()));
    const int o = qIndex;
    switch (t) {
      case JointType::RevoluteX:
        return SpatialTransform::rotation(linalg::rotX(q[o]));
      case JointType::RevoluteY:
        return SpatialTransform::rotation(linalg::rotY(q[o]));
      case JointType::RevoluteZ:
        return SpatialTransform::rotation(linalg::rotZ(q[o]));
      case JointType::PrismaticX:
        return SpatialTransform::translation(Vec3{q[o], 0, 0});
      case JointType::PrismaticY:
        return SpatialTransform::translation(Vec3{0, q[o], 0});
      case JointType::PrismaticZ:
        return SpatialTransform::translation(Vec3{0, 0, q[o]});
      case JointType::Spherical: {
        const Quaternion quat{q[o + 0], q[o + 1], q[o + 2], q[o + 3]};
        return SpatialTransform::rotation(quat.toRotation().transpose());
      }
      case JointType::Translation3:
        return SpatialTransform::translation(Vec3{q[o], q[o + 1], q[o + 2]});
      case JointType::Floating: {
        const Quaternion quat{q[o + 3], q[o + 4], q[o + 5], q[o + 6]};
        return SpatialTransform(quat.toRotation().transpose(),
                                Vec3{q[o], q[o + 1], q[o + 2]});
      }
    }
    return SpatialTransform::identity();
}

VectorX
jointIntegrate(JointType t, const VectorX &q, const VectorX &v)
{
    assert(static_cast<int>(q.size()) == jointNq(t));
    assert(static_cast<int>(v.size()) == jointNv(t));
    VectorX out(jointNq(t));
    jointIntegrateAt(t, q, 0, v, 0, out);
    return out;
}

void
jointIntegrateAt(JointType t, const VectorX &q, int qIndex,
                 const VectorX &v, int vIndex, VectorX &out)
{
    assert(qIndex + jointNq(t) <= static_cast<int>(q.size()));
    assert(vIndex + jointNv(t) <= static_cast<int>(v.size()));
    assert(qIndex + jointNq(t) <= static_cast<int>(out.size()));
    const int qi = qIndex;
    const int vi = vIndex;
    switch (t) {
      case JointType::Spherical: {
        const Quaternion quat{q[qi], q[qi + 1], q[qi + 2], q[qi + 3]};
        const Quaternion nq =
            quat.integrated(Vec3{v[vi], v[vi + 1], v[vi + 2]});
        out[qi] = nq.x;
        out[qi + 1] = nq.y;
        out[qi + 2] = nq.z;
        out[qi + 3] = nq.w;
        break;
      }
      case JointType::Floating: {
        const Quaternion quat{q[qi + 3], q[qi + 4], q[qi + 5], q[qi + 6]};
        // Linear displacement is expressed in the body frame; map it
        // to the world frame with R before adding.
        const linalg::Mat3 r = quat.toRotation();
        const Vec3 dp = r * Vec3{v[vi + 3], v[vi + 4], v[vi + 5]};
        const Quaternion nq =
            quat.integrated(Vec3{v[vi], v[vi + 1], v[vi + 2]});
        out[qi] = q[qi] + dp[0];
        out[qi + 1] = q[qi + 1] + dp[1];
        out[qi + 2] = q[qi + 2] + dp[2];
        out[qi + 3] = nq.x;
        out[qi + 4] = nq.y;
        out[qi + 5] = nq.z;
        out[qi + 6] = nq.w;
        break;
      }
      default: {
        const int n = jointNv(t);
        for (int k = 0; k < n; ++k)
            out[qi + k] = q[qi + k] + v[vi + k];
        break;
      }
    }
}

namespace {

/**
 * Rotation vector ω with a.integrated(ω) == b (the log map of
 * conj(a) ∘ b, shortest arc). Inverse of Quaternion::integrated.
 * DADU_NO_SLP: the conj(a) ∘ b product must not fuse (quaternion.h).
 */
DADU_NO_SLP Vec3
quaternionDifference(const Quaternion &a, const Quaternion &b)
{
    // conj(a) ∘ b without materializing the conjugate.
    Quaternion rel{a.w * b.x - a.x * b.w - a.y * b.z + a.z * b.y,
                   a.w * b.y + a.x * b.z - a.y * b.w - a.z * b.x,
                   a.w * b.z - a.x * b.y + a.y * b.x - a.z * b.w,
                   a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z};
    if (rel.w < 0.0) { // shortest arc: q and -q are the same rotation
        rel.x = -rel.x;
        rel.y = -rel.y;
        rel.z = -rel.z;
        rel.w = -rel.w;
    }
    const Vec3 xyz{rel.x, rel.y, rel.z};
    const double sin_half = xyz.norm();
    if (sin_half < 1e-12)
        return xyz * 2.0; // small angle: exp(ω) ≈ (ω/2, 1)
    const double angle = 2.0 * std::atan2(sin_half, rel.w);
    return xyz * (angle / sin_half);
}

} // namespace

void
jointDifferenceAt(JointType t, const VectorX &a, const VectorX &b,
                  int qIndex, int vIndex, VectorX &out)
{
    assert(qIndex + jointNq(t) <= static_cast<int>(a.size()));
    assert(qIndex + jointNq(t) <= static_cast<int>(b.size()));
    assert(vIndex + jointNv(t) <= static_cast<int>(out.size()));
    const int qi = qIndex;
    const int vi = vIndex;
    switch (t) {
      case JointType::Spherical: {
        const Quaternion qa{a[qi], a[qi + 1], a[qi + 2], a[qi + 3]};
        const Quaternion qb{b[qi], b[qi + 1], b[qi + 2], b[qi + 3]};
        const Vec3 w = quaternionDifference(qa, qb);
        out[vi] = w[0];
        out[vi + 1] = w[1];
        out[vi + 2] = w[2];
        break;
      }
      case JointType::Floating: {
        const Quaternion qa{a[qi + 3], a[qi + 4], a[qi + 5], a[qi + 6]};
        const Quaternion qb{b[qi + 3], b[qi + 4], b[qi + 5], b[qi + 6]};
        const Vec3 w = quaternionDifference(qa, qb);
        // integrate adds R_a·v_lin in the world frame, so the
        // difference maps the world displacement back to a's frame.
        const Vec3 dp{b[qi] - a[qi], b[qi + 1] - a[qi + 1],
                      b[qi + 2] - a[qi + 2]};
        const Vec3 v = qa.toRotation().transpose() * dp;
        out[vi] = w[0];
        out[vi + 1] = w[1];
        out[vi + 2] = w[2];
        out[vi + 3] = v[0];
        out[vi + 4] = v[1];
        out[vi + 5] = v[2];
        break;
      }
      default: {
        const int n = jointNv(t);
        for (int k = 0; k < n; ++k)
            out[vi + k] = b[qi + k] - a[qi + k];
        break;
      }
    }
}

VectorX
jointNeutral(JointType t)
{
    switch (t) {
      case JointType::Spherical:
        return VectorX{0, 0, 0, 1};
      case JointType::Translation3:
        return VectorX{0, 0, 0};
      case JointType::Floating:
        return VectorX{0, 0, 0, 0, 0, 0, 1};
      default:
        return VectorX{0};
    }
}

} // namespace dadu::model
