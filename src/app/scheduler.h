/**
 * @file
 * Fig. 13 scheduling: partially parallelizable task sets on the
 * pipelined accelerator vs a multi-threaded CPU.
 *
 * The RK4 sensitivity analysis has 4 serial sub-tasks per sample
 * point; different points are independent. The accelerator keeps its
 * pipeline full by interleaving stage-k sub-tasks of all points,
 * paying the pipeline latency only once per stage boundary; the CPU
 * runs points spatially across cores.
 */

#ifndef DADU_APP_SCHEDULER_H
#define DADU_APP_SCHEDULER_H

namespace dadu::app {

/**
 * Makespan in microseconds of @p points x @p stages serial-stage
 * tasks on a pipeline with initiation interval @p ii_cycles and
 * latency @p latency_cycles at @p freq_mhz (Fig. 13, top).
 *
 * Stage k+1 of a point needs stage k of the *same* point, so each
 * stage boundary costs one pipeline drain; within a stage all points
 * stream back-to-back.
 */
double scheduleSerialStagesUs(int points, int stages, double ii_cycles,
                              double latency_cycles, double freq_mhz);

/**
 * Makespan of the same task set on @p threads CPU cores with
 * per-sub-task time @p task_us (Fig. 13, bottom): points are
 * distributed spatially; stages serialize inside each point.
 */
double scheduleCpuUs(int points, int stages, double task_us,
                     int threads);

/**
 * Makespan in microseconds of a @p points x @p stages task set split
 * evenly across @p shards identical pipeline instances running
 * concurrently (the runtime's sharded batches over cloned
 * accelerators): each instance streams ceil(points/shards) tasks per
 * stage and pays the pipeline latency once per stage boundary, so
 * the job finishes with its largest shard. Shards = 1 reduces to
 * scheduleSerialStagesUs; stages = 1 is the flat sharded batch.
 */
double scheduleShardedUs(int points, int stages, int shards,
                         double ii_cycles, double latency_cycles,
                         double freq_mhz);

} // namespace dadu::app

#endif // DADU_APP_SCHEDULER_H
