/**
 * @file
 * The pack* entry points and the run-time choice between the lane
 * kernels' builds (soa/kernels.cc), on the probe linalg/isa.h shares
 * with the dense products. Compiled once, for the default target:
 * nothing here may run an instruction the host lacks.
 */

#include "algorithms/soa/kernels.h"
#include "linalg/isa.h"

#include <cstdlib>

namespace dadu::algo::soa {

bool
laneWidthSupported(int w)
{
    return w == 4 || w == 8 || w == 16;
}

int
defaultLaneWidth()
{
    if (const char *env = std::getenv("DADU_LANE_WIDTH")) {
        const int w = std::atoi(env);
        if (w == 1 || laneWidthSupported(w))
            return w;
    }
    return 8;
}

const KernelSet *
v4Kernels(const char **why)
{
    if (!linalg::runsV4(why))
        return nullptr;
#ifdef DADU_HAVE_V4
    return &v4::kernels();
#else
    return nullptr; // not reached: runsV4 is false without the build
#endif
}

const KernelSet &
activeKernels()
{
    static const KernelSet &active =
        v4Kernels() ? *v4Kernels() : base::kernels();
    return active;
}

void
packForwardDynamics(const RobotModel &robot, DynamicsWorkspace &ws,
                    int width, const LaneBatch &in, const LaneResults &out)
{
    activeKernels().forwardDynamics(robot, ws, width, in, out, nullptr);
}

void
packFdDerivatives(const RobotModel &robot, DynamicsWorkspace &ws, int width,
                  const LaneBatch &in, const LaneResults &out,
                  const ColumnPlan *plan)
{
    activeKernels().fdDerivatives(robot, ws, width, in, out, plan);
}

void
packFdGivenAccel(const RobotModel &robot, DynamicsWorkspace &ws, int width,
                 const LaneBatch &in, const LaneResults &out,
                 const ColumnPlan *plan)
{
    activeKernels().fdGivenAccel(robot, ws, width, in, out, plan);
}

void
packMinv(const RobotModel &robot, DynamicsWorkspace &ws, int width,
         const LaneBatch &in, const LaneResults &out)
{
    activeKernels().minv(robot, ws, width, in, out, nullptr);
}

void
packAba(const RobotModel &robot, DynamicsWorkspace &ws, int width,
        const LaneBatch &in, const LaneResults &out)
{
    activeKernels().aba(robot, ws, width, in, out, nullptr);
}

void
packRnea(const RobotModel &robot, DynamicsWorkspace &ws, int width,
         const LaneBatch &in, const LaneResults &out)
{
    activeKernels().rnea(robot, ws, width, in, out, nullptr);
}

void
packCrba(const RobotModel &robot, DynamicsWorkspace &ws, int width,
         const LaneBatch &in, const LaneResults &out)
{
    activeKernels().crba(robot, ws, width, in, out, nullptr);
}

void
packRneaDerivatives(const RobotModel &robot, DynamicsWorkspace &ws,
                    int width, const LaneBatch &in, const LaneResults &out,
                    const ColumnPlan *plan)
{
    activeKernels().rneaDerivatives(robot, ws, width, in, out, plan);
}

} // namespace dadu::algo::soa
