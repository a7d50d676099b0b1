#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <sys/resource.h>

#include "algorithms/crba.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/rnea_derivatives.h"

namespace rbdbench {

double
Samples::pct(double p) const
{
    if (v_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    const double rank = std::ceil(p * static_cast<double>(v_.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : std::min(v_.size(), static_cast<std::size_t>(rank)) - 1;
    return v_[i];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

int
sliceCount(const RunOptions &o, double slice_s)
{
    const int least = o.trace ? 2 : 1;
    if (o.quick)
        return least;
    return std::max(least, static_cast<int>(std::lround(o.seconds / slice_s)));
}

void
reportEndToEnd(double p50_us, double p99_us, double rate_per_s,
               std::size_t requests, const Samples &setup_us, RunResult &res)
{
    res.metric("latency_p50_us", "us", p50_us, requests);
    res.metric("latency_p99_us", "us", p99_us, requests);
    res.metric("throughput_per_s", "1/s", rate_per_s, requests);
    res.metric("setup_s", "s", setup_us.median() / 1e6, setup_us.size());
    res.metric("peak_rss_mb", "MB", peakRssMb(), 1);
}

void
reportAsMeasured(double p50_us, double p99_us, std::size_t requests,
                 const Samples &factors, RunResult &res)
{
    res.detail.push_back({"measured.latency_p50_us", "us", p50_us, requests});
    res.detail.push_back({"measured.latency_p99_us", "us", p99_us, requests});
    res.detail.push_back({"host.speed_factor_p50", "ratio", factors.median(),
                          factors.size()});
}

SubmitStatus
TimedBackend::submit(FunctionType fn, const DynamicsRequest *requests,
                     std::size_t count, DynamicsResult *results,
                     BatchStats *stats)
{
    const double t0 = nowUs();
    const SubmitStatus s = inner_.submit(fn, requests, count, results, stats);
    busy_us_ += nowUs() - t0;
    return s;
}

std::mt19937
makeRng(std::uint64_t seed, std::uint32_t stream)
{
    std::seed_seq seq{static_cast<std::uint32_t>(seed),
                      static_cast<std::uint32_t>(seed >> 32), stream};
    return std::mt19937(seq);
}

std::vector<DynamicsRequest>
seededRequests(const RobotModel &robot, int n, std::mt19937 &rng)
{
    std::vector<DynamicsRequest> reqs(static_cast<std::size_t>(n));
    for (DynamicsRequest &r : reqs) {
        r.q = robot.randomConfiguration(rng);
        r.qd = robot.randomVelocity(rng);
        r.qdd_or_tau = robot.randomVelocity(rng);
    }
    return reqs;
}

void
scalarExecute(const RobotModel &robot, dadu::algo::DynamicsWorkspace &ws,
              dadu::algo::FdDerivatives &fd, FunctionType fn,
              const DynamicsRequest &req, DynamicsResult &out)
{
    namespace algo = dadu::algo;
    switch (fn) {
      case FunctionType::ID:
        algo::rnea(robot, ws, req.q, req.qd, req.qdd_or_tau, ws.rnea_res);
        out.tau = ws.rnea_res.tau;
        break;
      case FunctionType::FD:
        algo::forwardDynamics(robot, ws, req.q, req.qd, req.qdd_or_tau,
                              out.qdd);
        break;
      case FunctionType::M:
        algo::crba(robot, ws, req.q, out.m);
        break;
      case FunctionType::Minv:
        algo::massMatrixInverse(robot, ws, req.q, out.minv);
        break;
      case FunctionType::DeltaID:
        algo::rnea(robot, ws, req.q, req.qd, req.qdd_or_tau, ws.rnea_res);
        out.tau = ws.rnea_res.tau;
        algo::rneaDerivatives(robot, ws, req.q, req.qd, req.qdd_or_tau,
                              ws.did);
        out.dtau_dq = ws.did.dtau_dq;
        out.dtau_dqd = ws.did.dtau_dqd;
        break;
      case FunctionType::DeltaFD:
        algo::fdDerivatives(robot, ws, req.q, req.qd, req.qdd_or_tau, fd);
        out.qdd = fd.qdd;
        out.minv = fd.minv;
        out.dqdd_dq = fd.dqdd_dq;
        out.dqdd_dqd = fd.dqdd_dqd;
        break;
      case FunctionType::DeltaiFD:
        algo::fdDerivativesGivenAccel(robot, ws, req.q, req.qd,
                                      req.qdd_or_tau, req.minv, fd);
        out.qdd = req.qdd_or_tau;
        out.dqdd_dq = fd.dqdd_dq;
        out.dqdd_dqd = fd.dqdd_dqd;
        break;
    }
}

namespace {

/** Visit the (got, ref) output fields @p fn defines, as flat arrays. */
template <typename F>
bool
forEachField(FunctionType fn, const DynamicsResult &a,
             const DynamicsResult &b, F &&f)
{
    auto vec = [&](const VectorX &x, const VectorX &y) {
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i)
            f(x[i], y[i]);
        return true;
    };
    auto mat = [&](const MatrixX &x, const MatrixX &y) {
        if (x.rows() != y.rows() || x.cols() != y.cols())
            return false;
        for (std::size_t r = 0; r < x.rows(); ++r)
            for (std::size_t c = 0; c < x.cols(); ++c)
                f(x(r, c), y(r, c));
        return true;
    };
    switch (fn) {
      case FunctionType::ID:
        return vec(a.tau, b.tau);
      case FunctionType::FD:
        return vec(a.qdd, b.qdd);
      case FunctionType::M:
        return mat(a.m, b.m);
      case FunctionType::Minv:
        return mat(a.minv, b.minv);
      case FunctionType::DeltaID:
        return vec(a.tau, b.tau) && mat(a.dtau_dq, b.dtau_dq) &&
               mat(a.dtau_dqd, b.dtau_dqd);
      case FunctionType::DeltaFD:
        return vec(a.qdd, b.qdd) && mat(a.minv, b.minv) &&
               mat(a.dqdd_dq, b.dqdd_dq) && mat(a.dqdd_dqd, b.dqdd_dqd);
      case FunctionType::DeltaiFD:
        return vec(a.qdd, b.qdd) && mat(a.dqdd_dq, b.dqdd_dq) &&
               mat(a.dqdd_dqd, b.dqdd_dqd);
    }
    return false;
}

} // namespace

bool
sameBits(FunctionType fn, const DynamicsResult &a, const DynamicsResult &b)
{
    bool same = true;
    const bool shapes = forEachField(fn, a, b, [&](double x, double y) {
        same = same && std::memcmp(&x, &y, sizeof(double)) == 0;
    });
    return shapes && same;
}

double
relErr(FunctionType fn, const DynamicsResult &got, const DynamicsResult &ref)
{
    double worst = 0.0;
    const bool shapes = forEachField(fn, got, ref, [&](double g, double r) {
        const double e = std::abs(g - r) / std::max(1.0, std::abs(r));
        worst = std::isnan(e) ? INFINITY : std::max(worst, e);
    });
    return shapes ? worst : INFINITY;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
fnKey(FunctionType fn)
{
    switch (fn) {
      case FunctionType::ID: return "id";
      case FunctionType::FD: return "fd";
      case FunctionType::M: return "m";
      case FunctionType::Minv: return "minv";
      case FunctionType::DeltaID: return "did";
      case FunctionType::DeltaFD: return "dfd";
      case FunctionType::DeltaiFD: return "difd";
    }
    return "?";
}

} // namespace rbdbench
