/**
 * @file
 * Shared helpers for the experiment harness binaries.
 *
 * Each bench binary regenerates one table/figure of the paper
 * (see DESIGN.md's experiment index) and prints the paper-reported
 * values next to the reproduced ones so EXPERIMENTS.md can record
 * the comparison.
 */

#ifndef DADU_BENCH_BENCH_UTIL_H
#define DADU_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.h"
#include "model/builders.h"
#include "perf/baselines.h"
#include "perf/timing.h"

namespace dadu::bench {

using accel::Accelerator;
using accel::FunctionType;
using accel::TaskInput;
using model::RobotModel;

/** The six Fig. 15 functions, in figure order. */
inline const std::vector<FunctionType> &
fig15Functions()
{
    static const std::vector<FunctionType> fns = {
        FunctionType::ID, FunctionType::FD, FunctionType::M,
        FunctionType::Minv, FunctionType::DeltaID,
        FunctionType::DeltaFD};
    return fns;
}

/** The three Fig. 15 robots with their baseline-table keys. */
struct EvalEntry
{
    const char *name;
    RobotModel (*make)();
    perf::EvalRobot key;
};

inline const std::vector<EvalEntry> &
evalRobots()
{
    static const std::vector<EvalEntry> robots = {
        {"iiwa", model::makeIiwa, perf::EvalRobot::Iiwa},
        {"HyQ", model::makeHyq, perf::EvalRobot::Hyq},
        {"Atlas", model::makeAtlas, perf::EvalRobot::Atlas},
    };
    return robots;
}

/** Random batch of accelerator task inputs. */
inline std::vector<TaskInput>
randomBatch(const RobotModel &robot, int n, unsigned seed = 7)
{
    std::mt19937 rng(seed);
    std::vector<TaskInput> batch(n);
    for (auto &t : batch) {
        t.q = robot.randomConfiguration(rng);
        t.qd = robot.randomVelocity(rng);
        t.qdd_or_tau = robot.randomVelocity(rng);
    }
    return batch;
}

/** Monotonic wall clock in microseconds. */
using perf::nowUs;

/** Median of @p v (taken by value: sorted in place). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** True when @p flag (e.g. "--json") appears in argv. */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

/** Value of "--flag <value>", or nullptr when absent / valueless. */
inline const char *
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

/** Integer value of "--flag <n>", or @p fallback when absent. */
inline int
flagInt(int argc, char **argv, const char *flag, int fallback)
{
    const char *v = flagValue(argc, argv, flag);
    return v ? std::atoi(v) : fallback;
}

/**
 * Flat key -> number metric report, written as a JSON object so
 * future PRs can track the perf trajectory (the --json output mode
 * of the bench binaries).
 */
class JsonReport
{
  public:
    void add(const std::string &key, double value)
    {
        entries_.emplace_back(key, value);
    }

    /** Write {"k": v, ...} to @p path; returns false on I/O error. */
    bool
    writeTo(const std::string &path) const
    {
        return writeEntries(path, entries_);
    }

    /**
     * Merge this report into @p path: existing keys written by other
     * bench binaries sharing the file are preserved (this report's
     * values win on collision), so e.g. the two Fig. 15 benches can
     * both contribute to one BENCH_fig15.json.
     */
    bool
    mergeTo(const std::string &path) const
    {
        std::vector<std::pair<std::string, double>> merged;
        if (std::FILE *f = std::fopen(path.c_str(), "r")) {
            // The flat {"k": v} format writeEntries produces.
            char line[512];
            char key[256];
            double value;
            while (std::fgets(line, sizeof line, f)) {
                if (std::sscanf(line, " \"%255[^\"]\" : %lf", key,
                                &value) == 2)
                    merged.emplace_back(key, value);
            }
            std::fclose(f);
        }
        for (const auto &e : entries_) {
            bool found = false;
            for (auto &m : merged) {
                if (m.first == e.first) {
                    m.second = e.second;
                    found = true;
                    break;
                }
            }
            if (!found)
                merged.push_back(e);
        }
        return writeEntries(path, merged);
    }

  private:
    static bool
    writeEntries(const std::string &path,
                 const std::vector<std::pair<std::string, double>> &entries)
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\n");
        for (std::size_t i = 0; i < entries.size(); ++i)
            std::fprintf(f, "  \"%s\": %.6f%s\n", entries[i].first.c_str(),
                         entries[i].second,
                         i + 1 < entries.size() ? "," : "");
        std::fprintf(f, "}\n");
        std::fclose(f);
        return true;
    }

    std::vector<std::pair<std::string, double>> entries_;
};

/**
 * Version of the flat {"key": number} BENCH_*.json schema. Bump when
 * the report format itself (not the metric set) changes.
 */
inline constexpr double kBenchJsonSchemaVersion = 2.0;

/**
 * The shared --json epilogue of every bench binary: when the flag is
 * present, write @p report to @p path and report the outcome. A
 * single-writer file is overwritten (dropped keys disappear); pass
 * @p merge = true only when several binaries share @p path (the two
 * Fig. 15 benches), so each preserves the other's keys.
 *
 * Every report is stamped self-describing before writing:
 * "schema_version" and a "bench.<binary>" marker per contributing
 * binary (numeric so merged files accumulate one marker per writer).
 * No timestamps — reruns of unchanged code produce identical files.
 * @return true when the file was written.
 */
inline bool
maybeWriteJson(int argc, char **argv, const JsonReport &report,
               const char *path, bool merge = false)
{
    if (!hasFlag(argc, argv, "--json"))
        return false;
    JsonReport stamped = report;
    stamped.add("schema_version", kBenchJsonSchemaVersion);
    if (argc > 0 && argv[0]) {
        const char *base = argv[0];
        for (const char *p = argv[0]; *p; ++p) {
            if (*p == '/')
                base = p + 1;
        }
        stamped.add(std::string("bench.") + base, 1.0);
    }
    if (merge ? stamped.mergeTo(path) : stamped.writeTo(path)) {
        std::printf("\nwrote %s\n", path);
        return true;
    }
    std::printf("\nfailed to write %s\n", path);
    return false;
}

/** Section header in the output stream. */
inline void
banner(const std::string &title)
{
    std::printf("\n============================================"
                "====================\n%s\n"
                "============================================"
                "====================\n",
                title.c_str());
}

} // namespace dadu::bench

#endif // DADU_BENCH_BENCH_UTIL_H
