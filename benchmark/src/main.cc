/**
 * @file
 * rbdbench: one workload, one run.
 *
 *   rbdbench --workload W --seed S --seconds T --trace 0|1
 *            [--quick] [--trace-out trace.json]
 *
 * Workloads: mpc_arm, mpc_quadruped, serve_mixed, batch_sweep. With
 * --trace 0 the run reports the end-to-end metrics; with --trace 1 it
 * alternates untraced and traced slices and reports the per-layer
 * metrics. Progress goes to stderr; the last line of stdout is one
 * JSON object with the result, which benchmark/run.py reads.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

using namespace rbdbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: rbdbench --workload {mpc_arm|mpc_quadruped|"
                 "serve_mixed|batch_sweep} --seed S --seconds T "
                 "--trace 0|1 [--quick] [--trace-out PATH]\n");
}

/** JSON string literal of @p s (names and messages are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

/** A JSON number with every digit (non-finite values become null). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
stringList(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + quoted(v[i]);
    return out + "]";
}

std::string
metricMap(const std::vector<Metric> &v)
{
    std::string out = "{";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + quoted(v[i].name) + ":{\"value\":" +
               number(v[i].value) + ",\"unit\":" + quoted(v[i].unit) +
               ",\"samples\":" + std::to_string(v[i].samples) + "}";
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    RunOptions opts;
    int trace = -1;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--workload" && more) {
            workload = argv[++i];
        } else if (a == "--seed" && more) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds" && more) {
            opts.seconds = std::strtod(argv[++i], nullptr);
            have_seconds = opts.seconds > 0.0;
        } else if (a == "--trace" && more) {
            const std::string t = argv[++i];
            trace = t == "1" ? 1 : t == "0" ? 0 : -1;
        } else if (a == "--trace-out" && more) {
            opts.trace_out = argv[++i];
        } else if (a == "--quick") {
            opts.quick = true;
        } else {
            usage();
            return 2;
        }
    }
    const bool known = isMpcWorkload(workload) || workload == "batch_sweep";
    if (!known || trace < 0 || !have_seed || !have_seconds) {
        usage();
        return 2;
    }
    opts.trace = trace == 1;

    std::fprintf(stderr, "rbdbench: %s seed %llu, %.1f s, trace %d%s\n",
                 workload.c_str(), static_cast<unsigned long long>(opts.seed),
                 opts.seconds, trace, opts.quick ? ", quick" : "");
    const RunResult r = workload == "batch_sweep"
                            ? runBatchSweep(opts)
                            : runMpcWorkload(workload, opts);
    for (const std::string &f : r.failures)
        std::fprintf(stderr, "rbdbench: FAILED %s\n", f.c_str());
    for (const std::string &w : r.warnings)
        std::fprintf(stderr, "rbdbench: warning: %s\n", w.c_str());

    std::string outputs = "{";
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
        char hex[48];
        std::snprintf(hex, sizeof hex, "%a", r.outputs[i].second);
        outputs += (i ? "," : "") + quoted(r.outputs[i].first) + ":" +
                   quoted(hex);
    }
    outputs += "}";
    const std::string stamp =
        std::string("{\"compiler\":") + quoted(RBDBENCH_COMPILER) +
        ",\"cxxflags\":" + quoted(RBDBENCH_CXXFLAGS) +
        ",\"build_type\":" + quoted(RBDBENCH_BUILD_TYPE) +
        ",\"hardware_threads\":" +
        std::to_string(std::thread::hardware_concurrency()) + "}";
    std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"quick\":%s,"
                "\"correct\":%s,\"failures\":%s,\"valid\":%s,"
                "\"warnings\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s,\"detail\":%s,\"outputs\":%s,\"stamp\":%s}\n",
                quoted(workload).c_str(),
                static_cast<unsigned long long>(opts.seed), trace,
                opts.quick ? "true" : "false",
                r.failures.empty() ? "true" : "false",
                stringList(r.failures).c_str(), r.valid ? "true" : "false",
                stringList(r.warnings).c_str(),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metricMap(r.metrics).c_str(), metricMap(r.detail).c_str(),
                outputs.c_str(), stamp.c_str());
    return 0;
}
