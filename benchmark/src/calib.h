/**
 * @file
 * The host-speed probe that rbdbench scales its timings by.
 *
 * On a shared host a core runs this code at one speed while the other
 * hardware thread of the core is idle and up to about 1.9x slower while
 * another tenant keeps it busy, in episodes of seconds to minutes. A run
 * of 20 s then measures mostly one state or mostly the other, and its
 * median tick latency jumps between the two.
 *
 * HostProbe times two small kernels that belong to the benchmark and
 * never change with the library: a chain of 6x6 spatial transforms
 * (dense floating point, like the dynamics kernels) and lookups in a
 * 1024-node std::map (pointer chasing and branches, like the runtime's
 * bookkeeping). Each is run three times and its fastest time kept, so a
 * cold cache or an interrupt does not count. Their product
 * t_chain * t_tree^0.4 is the host-speed index; the exponent was fitted
 * so that the index slows down as the workloads' own work does on the
 * sizing host. A sample timed next to the probe is scaled by
 * kReferenceIndex / index: the time it would have taken on an
 * uncontended core of the sizing host.
 */

#ifndef RBDBENCH_CALIB_H
#define RBDBENCH_CALIB_H

#include <map>
#include <vector>

namespace rbdbench {

class HostProbe
{
  public:
    HostProbe();

    /**
     * Speed of the calling thread's core now, relative to an
     * uncontended core of the sizing host: a time measured on this core
     * times factor() is that time at the reference speed. Takes about
     * 40 µs on an uncontended core. One thread per probe.
     */
    double factor();

  private:
    double chainUs();
    double treeUs();

    static constexpr int kLinks = 12;
    double transforms_[kLinks][36] = {};
    std::map<int, int> tree_;
    std::vector<int> keys_;
    double sink_ = 0.0; ///< the kernels' results, kept so neither is elided
};

} // namespace rbdbench

#endif // RBDBENCH_CALIB_H
