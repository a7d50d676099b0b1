#include "accel/dataflow.h"

#include <cassert>
#include <deque>

#include "runtime/mask.h"
#include "sim/kernel.h"

namespace dadu::accel {

namespace {

/** Mirror the computed upper triangle of a symmetric matrix. */
MatrixX
symmetrized(const MatrixX &m)
{
    MatrixX out = m;
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = r + 1; c < out.cols(); ++c)
            out(c, r) = out(r, c);
    return out;
}

} // namespace

// -----------------------------------------------------------------
// Input Stream Module
// -----------------------------------------------------------------

class InputStream : public sim::Module
{
  public:
    InputStream(TaskTable &tasks, const TaskInput *inputs,
                std::size_t count, FunctionType fn,
                const RobotModel &robot, TokenFifo *rf_root,
                std::vector<TokenFifo *> leaf_mb, int issue_ii,
                std::vector<char> &done_flags,
                std::vector<std::uint64_t> &issue_cycles)
        : Module("input_stream"), tasks_(tasks), inputs_(inputs),
          count_(count), fn_(fn), robot_(robot), rf_root_(rf_root),
          leaf_mb_(std::move(leaf_mb)), issue_ii_(issue_ii),
          done_(done_flags), issue_cycles_(issue_cycles)
    {}

    void
    tick(sim::Cycle now) override
    {
        if (next_ >= static_cast<int>(count_))
            return;
        if (now < next_time_)
            return;
        // Bounded task buffer: wait for the slot to drain.
        if (next_ >= tasks_.poolSize() && !done_[next_ - tasks_.poolSize()])
            return;

        const bool use_fb = fn_ != FunctionType::M &&
                            fn_ != FunctionType::Minv;
        const bool use_bf = fn_ == FunctionType::M ||
                            fn_ == FunctionType::Minv ||
                            fn_ == FunctionType::FD ||
                            fn_ == FunctionType::DeltaFD;
        if (use_fb && !rf_root_->canPush())
            return;
        if (use_bf) {
            for (TokenFifo *f : leaf_mb_) {
                if (!f->canPush())
                    return;
            }
        }

        TaskState &st = tasks_.at(next_);
        tasks_.core().initTask(st, inputs_[next_]);
        if (fn_ == FunctionType::ID || fn_ == FunctionType::DeltaID ||
            fn_ == FunctionType::DeltaiFD) {
            st.qdd = inputs_[next_].qdd_or_tau;
        }
        st.issue_cycle = now;
        issue_cycles_[next_] = now;

        const std::int8_t pass =
            (fn_ == FunctionType::DeltaID || fn_ == FunctionType::DeltaiFD)
                ? 1
                : 0;
        if (use_fb) {
            // Single-root robots (asserted by the builder).
            rf_root_->push(Token{next_, 0, pass});
        }
        if (use_bf) {
            int li = 0;
            for (int l = 0; l < robot_.nb(); ++l) {
                if (robot_.children(l).empty()) {
                    leaf_mb_[li]->push(
                        Token{next_, static_cast<std::int16_t>(l), 0});
                    ++li;
                }
            }
        }
        ++next_;
        next_time_ = now + issue_ii_;
    }

    bool
    idle() const override
    {
        return next_ >= static_cast<int>(count_);
    }

  private:
    TaskTable &tasks_;
    const TaskInput *inputs_;
    std::size_t count_;
    FunctionType fn_;
    const RobotModel &robot_;
    TokenFifo *rf_root_;
    std::vector<TokenFifo *> leaf_mb_;
    int issue_ii_;
    std::vector<char> &done_;
    std::vector<std::uint64_t> &issue_cycles_;
    int next_ = 0;
    sim::Cycle next_time_ = 0;
};

// -----------------------------------------------------------------
// Schedule + Feedback Module
// -----------------------------------------------------------------

class ScheduleModule : public sim::Module
{
  public:
    ScheduleModule(TaskTable &tasks, FunctionType fn,
                   const RobotModel &robot, const AccelConfig &cfg,
                   TokenFifo *fb_done, TokenFifo *m_done,
                   TokenFifo *row_out, TokenFifo *rf_root,
                   TaskOutput *results, std::size_t count,
                   std::vector<char> &done_flags,
                   std::vector<std::uint64_t> &done_cycles)
        : Module("schedule"), tasks_(tasks), fn_(fn), robot_(robot),
          cfg_(cfg), fb_done_(fb_done), m_done_(m_done),
          row_out_(row_out), rf_root_(rf_root), results_(results),
          count_(count), done_(done_flags), done_cycles_(done_cycles),
          progress_(count)
    {}

    void
    tick(sim::Cycle now) override
    {
        drain(now);
        // Single-server compute queue (vector subtraction + matrix
        // products of steps ③ and ⑥).
        if (!executing_ && !jobs_.empty() && now >= free_at_) {
            current_ = jobs_.front();
            jobs_.pop_front();
            executing_ = true;
            free_at_ = now + cost(current_);
        }
        if (executing_ && now >= free_at_) {
            if (!complete(current_, now))
                return; // feedback FIFO full; retry next cycle
            executing_ = false;
        }
    }

    bool
    idle() const override
    {
        return doneCount_ == count_ && jobs_.empty() && !executing_;
    }

  private:
    enum class JobKind { Matvec, Matmul };

    struct Job
    {
        int task;
        JobKind kind;
    };

    struct Progress
    {
        bool fb0 = false;
        bool fb1 = false;
        bool bf = false;
        int rows = 0;
        bool fd_scheduled = false;
        bool dfd_scheduled = false;
    };

    int
    cost(const Job &job) const
    {
        const int nv = robot_.nv();
        const int lanes = cfg_.schedule_units;
        if (job.kind == JobKind::Matvec)
            return (nv * nv + lanes - 1) / lanes + 4;
        // Step ⑥ matmul: two nv x nv x live products — a gated task
        // prices only its live columns.
        const algo::ColumnPlan &p = tasks_.at(job.task).plan;
        const int live = p.dense() ? nv : p.liveCount();
        return (2 * nv * nv * live + lanes - 1) / lanes + 4;
    }

    void
    drain(sim::Cycle now)
    {
        const int nb = robot_.nb();
        while (!fb_done_->empty()) {
            const Token t = fb_done_->pop();
            Progress &p = progress_[t.task];
            if (t.pass == 0)
                p.fb0 = true;
            else
                p.fb1 = true;
            advance(t.task, now);
        }
        while (!m_done_->empty()) {
            const Token t = m_done_->pop();
            progress_[t.task].bf = true;
            advance(t.task, now);
        }
        while (!row_out_->empty()) {
            const Token t = row_out_->pop();
            Progress &p = progress_[t.task];
            if (++p.rows == nb)
                p.bf = true;
            advance(t.task, now);
        }
    }

    /** Advance the per-task micro-instruction state machine. */
    void
    advance(int task, sim::Cycle now)
    {
        Progress &p = progress_[task];
        TaskState &st = tasks_.at(task);
        switch (fn_) {
          case FunctionType::ID:
            if (p.fb0) {
                st.out.tau = st.tau;
                finish(task, now);
            }
            break;
          case FunctionType::DeltaID:
            if (p.fb1) {
                st.out.tau = st.tau;
                st.out.dtau_dq = st.dtau_dq;
                st.out.dtau_dqd = st.dtau_dqd;
                finish(task, now);
            }
            break;
          case FunctionType::M:
            if (p.bf) {
                st.out.m = st.mwork;
                finish(task, now);
            }
            break;
          case FunctionType::Minv:
            if (p.bf) {
                st.out.minv = symmetrized(st.mwork);
                finish(task, now);
            }
            break;
          case FunctionType::FD:
            if (p.fb0 && p.bf && !p.fd_scheduled) {
                p.fd_scheduled = true;
                jobs_.push_back({task, JobKind::Matvec});
            }
            break;
          case FunctionType::DeltaFD:
            if (p.fb0 && p.bf && !p.fd_scheduled) {
                p.fd_scheduled = true;
                jobs_.push_back({task, JobKind::Matvec});
            }
            if (p.fb1 && !p.dfd_scheduled) {
                p.dfd_scheduled = true;
                jobs_.push_back({task, JobKind::Matmul});
            }
            break;
          case FunctionType::DeltaiFD:
            if (p.fb1 && !p.dfd_scheduled) {
                p.dfd_scheduled = true;
                jobs_.push_back({task, JobKind::Matmul});
            }
            break;
        }
    }

    /** Completion action; false if a feedback push must be retried. */
    bool
    complete(const Job &job, sim::Cycle now)
    {
        TaskState &st = tasks_.at(job.task);
        if (job.kind == JobKind::Matvec) {
            tasks_.core().scheduleFd(st);
            if (fn_ == FunctionType::FD) {
                st.out.qdd = st.qdd;
                finish(job.task, now);
                return true;
            }
            // ∆FD: Feedback Module writes the task back to the input
            // stream for the second FB pass (Fig. 14f).
            if (!rf_root_->canPush())
                return false;
            rf_root_->push(Token{job.task, 0, 1});
            return true;
        }
        tasks_.core().scheduleDeltaFd(st);
        st.out.qdd = st.qdd;
        if (fn_ == FunctionType::DeltaFD)
            st.out.minv = symmetrized(st.mwork);
        finish(job.task, now);
        return true;
    }

    void
    finish(int task, sim::Cycle now)
    {
        if (done_[task])
            return;
        results_[task] = tasks_.at(task).out;
        done_[task] = 1;
        done_cycles_[task] = now;
        ++doneCount_;
        tasks_.at(task).active = false;
    }

    TaskTable &tasks_;
    FunctionType fn_;
    const RobotModel &robot_;
    const AccelConfig &cfg_;
    TokenFifo *fb_done_;
    TokenFifo *m_done_;
    TokenFifo *row_out_;
    TokenFifo *rf_root_;
    TaskOutput *results_;
    std::size_t count_;
    std::vector<char> &done_;
    std::vector<std::uint64_t> &done_cycles_;
    std::vector<Progress> progress_;
    std::deque<Job> jobs_;
    Job current_{};
    bool executing_ = false;
    sim::Cycle free_at_ = 0;
    std::size_t doneCount_ = 0;
};

// -----------------------------------------------------------------
// AccelSim
// -----------------------------------------------------------------

struct AccelSim::Impl
{
    const RobotModel &robot;
    SapPlan plan;
    AccelConfig cfg;
    FunctionalCore core;

    Impl(const RobotModel &r, const SapPlan &p, const AccelConfig &c)
        : robot(r), plan(p), cfg(c), core(r, c.numeric)
    {}
};

AccelSim::AccelSim(const RobotModel &robot, const SapPlan &plan,
                   const AccelConfig &cfg)
    : impl_(std::make_unique<Impl>(robot, plan, cfg))
{
    assert(robot.children(-1).size() == 1 &&
           "the accelerator model expects a single root link");
}

AccelSim::~AccelSim() = default;

void
AccelSim::run(FunctionType fn, const TaskInput *inputs, std::size_t count,
              TaskOutput *outputs, BatchStats *stats)
{
    const RobotModel &robot = impl_->robot;
    const AccelConfig &cfg = impl_->cfg;
    const int nb = robot.nb();
    const int n = static_cast<int>(count);

    sim::Kernel kernel;
    TaskTable tasks(impl_->core,
                    std::min<int>(cfg.task_pool, std::max(1, n)));

    Routing routing;
    routing.robot = &robot;
    routing.rep = impl_->plan.rep;
    routing.children.resize(nb);
    for (int i = 0; i < nb; ++i)
        routing.children[i] = robot.children(i);

    // Channels, per representative link.
    const std::size_t cap = cfg.fifo_capacity;
    std::vector<TokenFifo *> rf_in(nb, nullptr), rb_dtr(nb, nullptr),
        rb_btr(nb, nullptr), df_ready(nb, nullptr),
        db_ready(nb, nullptr), mb_in(nb, nullptr), mf_ready(nb, nullptr);
    for (int i = 0; i < nb; ++i) {
        if (routing.rep[i] != i)
            continue;
        const std::string t = std::to_string(i);
        rf_in[i] = kernel.makeFifo<Token>("rf_in" + t, cap);
        rb_dtr[i] = kernel.makeFifo<Token>("rb_dtr" + t, cap);
        rb_btr[i] = kernel.makeFifo<Token>("rb_btr" + t, cap);
        df_ready[i] = kernel.makeFifo<Token>("df_rdy" + t, cap);
        db_ready[i] = kernel.makeFifo<Token>("db_rdy" + t, cap);
        mb_in[i] = kernel.makeFifo<Token>("mb_in" + t, cap);
        mf_ready[i] = kernel.makeFifo<Token>("mf_rdy" + t, cap);
    }
    auto *fb_done = kernel.makeFifo<Token>("fb_done", cap);
    auto *m_done = kernel.makeFifo<Token>("m_done", cap);
    auto *row_out = kernel.makeFifo<Token>("row_out", cap);

    // Submodules.
    std::vector<std::unique_ptr<sim::Module>> owned;
    const bool use_delta = runtime::gatesColumns(fn);
    const bool use_fb = fn != FunctionType::M && fn != FunctionType::Minv;
    const bool use_bf = fn == FunctionType::M ||
                        fn == FunctionType::Minv ||
                        fn == FunctionType::FD ||
                        fn == FunctionType::DeltaFD;
    const bool zero_qdd = fn == FunctionType::FD ||
                          fn == FunctionType::DeltaFD;

    // Timing model for the ∆ submodules: size the Df/Db token
    // streams for the union of the batch's live columns.
    algo::ColumnPlan timing_plan;
    const algo::ColumnPlan *tplan =
        runtime::unionPlan(fn, inputs, count, robot.nv(), timing_plan);

    auto timing = [&](int link, SubmoduleKind kind) {
        const OpCount dense_ops = submoduleOps(robot, link, kind);
        if (tplan == nullptr)
            return allocateTiming(dense_ops, cfg.target_ii, cfg.max_units);
        // Lanes stay sized for dense batches (the bitstream); gated
        // batches stream fewer column-ops through the same lanes.
        return gatedTiming(dense_ops,
                           submoduleOps(robot, link, kind, tplan),
                           cfg.target_ii, cfg.max_units);
    };

    for (int i = 0; i < nb; ++i) {
        if (routing.rep[i] != i)
            continue;
        const std::string t = std::to_string(i);
        if (use_fb) {
            auto rf = std::make_unique<RfSub>(
                "Rf" + t, timing(i, SubmoduleKind::RneaFwd), tasks,
                routing, rf_in[i]);
            rf->zero_qdd_pass0 = zero_qdd;
            rf->dtr = rb_dtr[i];
            rf->df_ready = use_delta ? df_ready[i] : nullptr;
            for (int c : routing.children[i])
                rf->child_in.push_back(rf_in[routing.rep[c]]);
            kernel.addModule(rf.get());
            owned.push_back(std::move(rf));

            auto rb = std::make_unique<RbSub>(
                "Rb" + t, timing(i, SubmoduleKind::RneaBwd), tasks,
                routing, rb_dtr[i], rb_btr[i]);
            const int lam = robot.parent(i);
            rb->parent_btr = lam == -1 ? nullptr
                                       : rb_btr[routing.rep[lam]];
            rb->done = lam == -1 ? fb_done : nullptr;
            rb->db_ready = use_delta ? db_ready[i] : nullptr;
            kernel.addModule(rb.get());
            owned.push_back(std::move(rb));

            if (use_delta) {
                auto df = std::make_unique<DfSub>(
                    "Df" + t, timing(i, SubmoduleKind::DeltaFwd), tasks,
                    routing, df_ready[i]);
                df->ddtr = db_ready[i];
                for (int c : routing.children[i])
                    df->child_in.push_back(df_ready[routing.rep[c]]);
                kernel.addModule(df.get());
                owned.push_back(std::move(df));

                auto db = std::make_unique<DbSub>(
                    "Db" + t, timing(i, SubmoduleKind::DeltaBwd), tasks,
                    routing, db_ready[i]);
                db->parent_btr = lam == -1 ? nullptr
                                           : db_ready[routing.rep[lam]];
                db->done = lam == -1 ? fb_done : nullptr;
                kernel.addModule(db.get());
                owned.push_back(std::move(db));
            }
        }
        if (use_bf) {
            auto mb = std::make_unique<MbSub>(
                "Mb" + t, timing(i, SubmoduleKind::MMinvBwd), tasks,
                routing, mb_in[i]);
            const int lam = robot.parent(i);
            mb->out_m = fn == FunctionType::M;
            mb->parent_trigger =
                lam == -1 ? nullptr : mb_in[routing.rep[lam]];
            mb->root_turnaround =
                lam == -1 ? mf_ready[routing.rep[i]] : nullptr;
            mb->done = lam == -1 ? m_done : nullptr;
            mb->mf_dtr = fn == FunctionType::M ? nullptr : mf_ready[i];
            kernel.addModule(mb.get());
            owned.push_back(std::move(mb));

            if (fn != FunctionType::M) {
                auto mf = std::make_unique<MfSub>(
                    "Mf" + t, timing(i, SubmoduleKind::MMinvFwd), tasks,
                    routing, mf_ready[i]);
                mf->row_out = row_out;
                for (int c : routing.children[i])
                    mf->child_in.push_back(mf_ready[routing.rep[c]]);
                kernel.addModule(mf.get());
                owned.push_back(std::move(mf));
            }
        }
    }

    // Leaf Mb channels for the input stream (backward pipelines start
    // at the leaves, Fig. 8).
    std::vector<TokenFifo *> leaf_mb;
    if (use_bf) {
        for (int l = 0; l < nb; ++l) {
            if (robot.children(l).empty())
                leaf_mb.push_back(mb_in[routing.rep[l]]);
        }
    }

    std::vector<char> done_flags(n, 0);
    std::vector<std::uint64_t> issue_cycles(n, 0), done_cycles(n, 0);

    InputStream input(tasks, inputs, count, fn, robot,
                      use_fb ? rf_in[routing.rep[0]] : nullptr, leaf_mb,
                      cfg.input_issue_ii, done_flags, issue_cycles);
    ScheduleModule sched(tasks, fn, robot, cfg, fb_done, m_done, row_out,
                         use_fb ? rf_in[routing.rep[0]] : nullptr,
                         outputs, count, done_flags, done_cycles);
    kernel.addModule(&input);
    kernel.addModule(&sched);

    const sim::Cycle cycles = kernel.run(500'000'000);

    if (stats) {
        stats->cycles = cycles;
        const double freq_hz = cfg.freq_mhz * 1e6;
        stats->total_us = static_cast<double>(cycles) / freq_hz * 1e6;
        stats->throughput_mtasks =
            n / (static_cast<double>(cycles) / freq_hz) / 1e6;
        double lat = 0.0;
        for (int t = 0; t < n; ++t)
            lat += static_cast<double>(done_cycles[t] - issue_cycles[t]);
        stats->latency_us = n ? lat / n / freq_hz * 1e6 : 0.0;
        stats->fifo_high_water = 0;
        stats->fifo_stalls = 0;
        for (const auto &f : kernel.fifos()) {
            stats->fifo_high_water =
                std::max(stats->fifo_high_water, f->highWater());
            stats->fifo_stalls += f->fullStalls();
        }
    }
}

} // namespace dadu::accel
