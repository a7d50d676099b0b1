#include "app/scheduler.h"

#include <cmath>

namespace dadu::app {

double
scheduleSerialStagesUs(int points, int stages, double ii_cycles,
                       double latency_cycles, double freq_mhz)
{
    const double cycles =
        stages * (points * ii_cycles + latency_cycles);
    return cycles / (freq_mhz * 1e6) * 1e6;
}

double
scheduleCpuUs(int points, int stages, double task_us, int threads)
{
    const double rounds = std::ceil(static_cast<double>(points) / threads);
    return rounds * stages * task_us;
}

double
scheduleShardedUs(int points, int stages, int shards, double ii_cycles,
                  double latency_cycles, double freq_mhz)
{
    const int per_shard = (points + shards - 1) / shards;
    return scheduleSerialStagesUs(per_shard, stages, ii_cycles,
                                  latency_cycles, freq_mhz);
}

} // namespace dadu::app
