/**
 * @file
 * Multi-client serving throughput: the asynchronous DynamicsServer
 * over 1, 2 and 4 accelerator shards.
 *
 * Two scenarios, both on the quadruped-with-arm robot of the
 * Section VI-B application:
 *
 *  1. sharded flat batch: one large ∆FD batch split across the
 *     registered accelerator instances by least-loaded water-filling
 *     (the cycle-accurate simulator provides the per-shard makespan;
 *     the executed number is cross-checked against the closed-form
 *     app::scheduleShardedUs model);
 *
 *  2. closed-loop MPC clients: app::serveClosedLoopClients runs M
 *     iLQR sessions on their own threads against the server, their
 *     ∆FD batches sharded across all instances and their FD rollouts
 *     on the least-loaded lane. The shards are AnalyticBackend
 *     clones. Throughput is tasks over the busiest lane's
 *     accumulated backend time (the serving makespan).
 *
 * All times are modeled accelerator time; their JSON keys carry the
 * _model suffix. Scenario 1 and the 1-shard row of scenario 2 are
 * deterministic (flat_* and server_1shard_* repeat bit for bit). The
 * 2- and 4-shard rows of scenario 2 depend on timing: the clients
 * run on their own threads, so which lane each job lands on depends
 * on the lane loads at the instant it is submitted
 * (server_{2,4}shard_* and server_scale_* move a few percent run to
 * run).
 *
 * Every accelerator instance past the first is a clone() of the one
 * fitted bitstream — no re-fit, no SAP recompilation — mirroring how
 * one configuration programs any number of FPGAs.
 *
 * --json writes BENCH_server.json.
 */

#include "bench_util.h"

#include <memory>

#include "app/closed_loop.h"
#include "app/scheduler.h"
#include "runtime/backends.h"
#include "runtime/server.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

/** Register @p base plus shards-1 clones; clones owned by @p owned. */
void
registerShards(runtime::DynamicsServer &server,
               runtime::DynamicsBackend &base, int shards,
               std::vector<std::unique_ptr<runtime::DynamicsBackend>> &owned)
{
    server.addBackend(base);
    for (int s = 1; s < shards; ++s) {
        owned.push_back(base.clone());
        server.addBackend(*owned.back());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Async DynamicsServer — multi-client / multi-shard serving");
    const RobotModel robot = model::makeQuadrupedArm();
    Accelerator accel(robot);
    runtime::AcceleratorBackend base(accel);

    const int shard_counts[] = {1, 2, 4};
    JsonReport report;

    // ------------------------------------------------------ scenario 1
    const int flat_n = 768;
    const auto est = accel.analytic(FunctionType::DeltaFD);
    std::printf("\nsharded flat batch (%d x dFD, cycle-accurate sim):\n",
                flat_n);
    std::printf("%8s %14s %14s %10s %8s\n", "shards", "executed us",
                "model us", "exec/mod", "scale");
    const auto flat_reqs = randomBatch(robot, flat_n, 99);
    double flat_us_1 = 0.0;
    for (int shards : shard_counts) {
        std::vector<std::unique_ptr<runtime::DynamicsBackend>> owned;
        runtime::DynamicsServer server;
        registerShards(server, base, shards, owned);
        std::vector<runtime::DynamicsResult> res(flat_n);
        const int job = server.submitSharded(FunctionType::DeltaFD,
                                             flat_reqs.data(), flat_n,
                                             res.data());
        server.drain();
        const double executed = server.jobUs(job);
        const double model = app::scheduleShardedUs(
            flat_n, 1, shards, est.ii_cycles, est.latency_cycles,
            accel.config().freq_mhz);
        if (shards == 1)
            flat_us_1 = executed;
        const double scale = flat_us_1 / executed;
        std::printf("%8d %14.1f %14.1f %10.2f %7.2fx\n", shards,
                    executed, model, executed / model, scale);
        const std::string k = std::to_string(shards);
        report.add("flat_" + k + "shard_us_model", executed);
        report.add("flat_" + k + "shard_over_formula_model",
                   executed / model);
        if (shards > 1)
            report.add("flat_scale_" + k + "shards_model", scale);
    }

    // ------------------------------------------------------ scenario 2
    const int clients = 4, ticks = 20;
    runtime::AnalyticBackend analytic(accel);
    std::printf("\nclosed-loop MPC clients (%d clients x %d ticks, "
                "analytic shards):\n",
                clients, ticks);
    std::printf("%8s %14s %14s %12s %8s\n", "shards", "makespan us",
                "busy us", "Mtasks/s", "scale");
    double makespan_1 = 0.0;
    for (int shards : shard_counts) {
        std::vector<std::unique_ptr<runtime::DynamicsBackend>> owned;
        runtime::DynamicsServer server;
        registerShards(server, analytic, shards, owned);
        const app::ClosedLoopReport r =
            app::serveClosedLoopClients(robot, server, clients, ticks);
        if (shards == 1)
            makespan_1 = r.makespan_us;
        const double scale = makespan_1 / r.makespan_us;
        const double mtasks = r.tasks / r.makespan_us;
        std::printf("%8d %14.1f %14.1f %12.3f %7.2fx\n", shards,
                    r.makespan_us, r.busy_us, mtasks, scale);
        const std::string k = std::to_string(shards);
        report.add("server_" + k + "shard_makespan_us_model",
                   r.makespan_us);
        report.add("server_" + k + "shard_throughput_mtasks_model",
                   mtasks);
        if (shards > 1)
            report.add("server_scale_" + k + "shards_model", scale);
    }

    maybeWriteJson(argc, argv, report, "BENCH_server.json");
    return 0;
}
