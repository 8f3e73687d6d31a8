/**
 * @file
 * Pass-through workload::Dfs used by the benchmark driver. It forwards
 * every call to the system under test and observes each
 * DfsClient::execute from outside:
 *
 *  - one "bench" tracer span per op (a no-op while the tracer is off);
 *  - a status tally per op type, plus the failures the correctness gate
 *    rejects (a read/stat of a built-tree path that is not OK);
 *  - the latency and completion time of every op that completes inside
 *    the measured window, and the paths of creates/deletes/moves so the
 *    driver can check the authoritative tree after drain;
 *  - optionally the op/path stream of the window, for the replays.
 *
 * The wrapper's coroutine resumes its caller by symmetric transfer, so it
 * schedules no simulation events and leaves modelled results unchanged.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/workload/dfs_interface.h"

namespace lfs::perfbench {

/** Round trips a user sees as answered; system faults are failures. */
inline bool
completed_status(Code code)
{
    switch (code) {
      case Code::kOk:
      case Code::kNotFound:
      case Code::kAlreadyExists:
      case Code::kFailedPrecondition:
      case Code::kPermissionDenied:
      case Code::kInvalidArgument:
        return true;
      default:
        return false;
    }
}

/** Measurements of the ops that completed inside the measured window. */
struct WindowStats {
    int64_t completed = 0;
    int64_t failed = 0;
    sim::Histogram latency;           ///< completed ops, simulated us
    double completion_sum_us = 0.0;   ///< sum of completion times
    double issue_sum_us = 0.0;        ///< sum of issue times
};

class RecordingDfs;

class RecordingClient : public workload::DfsClient {
  public:
    RecordingClient(RecordingDfs& owner, workload::DfsClient& inner)
        : owner_(owner), inner_(inner)
    {
    }

    sim::Task<OpResult> execute(Op op) override;

  private:
    RecordingDfs& owner_;
    workload::DfsClient& inner_;
};

class RecordingDfs : public workload::Dfs {
  public:
    static constexpr size_t kOps = static_cast<size_t>(OpType::kCount);
    static constexpr size_t kCodes = 16;

    RecordingDfs(sim::Simulation& sim, workload::Dfs& inner,
                 const std::vector<std::string>& built_files)
        : sim_(sim),
          inner_(inner),
          built_files_(built_files.begin(), built_files.end())
    {
        for (size_t i = 0; i < inner_.client_count(); ++i) {
            clients_.push_back(
                std::make_unique<RecordingClient>(*this, inner_.client(i)));
        }
    }

    // workload::Dfs
    std::string name() const override { return inner_.name(); }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return inner_.metrics(); }
    ns::NamespaceTree& authoritative_tree() override
    {
        return inner_.authoritative_tree();
    }
    int active_name_nodes() const override
    {
        return inner_.active_name_nodes();
    }
    double cost_so_far() const override { return inner_.cost_so_far(); }
    double simplified_cost_so_far() const override
    {
        return inner_.simplified_cost_so_far();
    }
    workload::DegradationStats degradation() const override
    {
        return inner_.degradation();
    }

    /**
     * Count ops of @p type completing in [begin, end) into window().
     * kCount counts every type (open-loop mixes).
     */
    void
    set_window(OpType type, sim::SimTime begin, sim::SimTime end)
    {
        window_type_ = type;
        window_begin_ = begin;
        window_end_ = end;
    }

    /** Keep the op/path stream of window ops for the replays. */
    void set_capture(bool on) { capture_ = on; }

    const WindowStats& window() const { return window_; }

    /** Exact @p p-th percentile of completed window ops' latencies, us. */
    sim::SimTime
    latency_percentile(double p)
    {
        if (latencies_.empty()) {
            return 0;
        }
        size_t k = std::min(
            latencies_.size() - 1,
            static_cast<size_t>(p / 100.0 *
                                static_cast<double>(latencies_.size())));
        std::nth_element(latencies_.begin(),
                         latencies_.begin() + static_cast<std::ptrdiff_t>(k),
                         latencies_.end());
        return latencies_[k];
    }

    /** Paths of window ops, in completion order (when capturing). */
    const std::vector<std::string>& stream() const { return stream_; }

    /** Status tally: tally()[op][code]. */
    const std::array<std::array<int64_t, kCodes>, kOps>& tally() const
    {
        return tally_;
    }

    /** Every op that returned, in any phase. */
    int64_t returned() const { return returned_; }

    /** Sum of the completion times of every returned op, simulated us. */
    double returned_completion_sum_us() const { return returned_sum_us_; }

    /** Human-readable correctness violations seen so far. */
    const std::vector<std::string>& errors() const { return errors_; }

    /** Files created OK whose path no delete/mv ever named. */
    std::vector<std::string>
    surviving_creates() const
    {
        std::vector<std::string> out;
        for (const std::string& p : created_ok_) {
            if (moved_or_deleted_.count(p) == 0) {
                out.push_back(p);
            }
        }
        return out;
    }

    void add_error(std::string e) { errors_.push_back(std::move(e)); }

  private:
    friend class RecordingClient;

    void
    record(OpType type, const std::string& path, const std::string& dst,
           Code code, sim::SimTime issued)
    {
        sim::SimTime now = sim_.now();
        ++returned_;
        returned_sum_us_ += static_cast<double>(now);
        ++tally_[static_cast<size_t>(type)]
                [std::min(static_cast<size_t>(code), kCodes - 1)];
        if ((type == OpType::kReadFile || type == OpType::kStat) &&
            code != Code::kOk && built_files_.count(path) != 0 &&
            errors_.size() < 16) {
            errors_.push_back(std::string(op_name(type)) + " " + path +
                              " of the built tree returned " +
                              code_name(code));
        }
        if (type == OpType::kCreateFile && code == Code::kOk) {
            created_ok_.push_back(path);
        } else if (type == OpType::kDeleteFile || type == OpType::kMv) {
            moved_or_deleted_.insert(path);
            moved_or_deleted_.insert(dst);
        }
        if (now < window_begin_ || now >= window_end_ ||
            (window_type_ != OpType::kCount && type != window_type_)) {
            return;
        }
        if (completed_status(code)) {
            ++window_.completed;
            window_.latency.record(now - issued);
            latencies_.push_back(now - issued);
        } else {
            ++window_.failed;
        }
        window_.completion_sum_us += static_cast<double>(now);
        window_.issue_sum_us += static_cast<double>(issued);
        if (capture_) {
            stream_.push_back(path);
        }
    }

    sim::Simulation& sim_;
    workload::Dfs& inner_;
    std::unordered_set<std::string> built_files_;
    std::vector<std::unique_ptr<RecordingClient>> clients_;
    OpType window_type_ = OpType::kCount;
    sim::SimTime window_begin_ = sim::kNever;
    sim::SimTime window_end_ = sim::kNever;
    bool capture_ = false;
    WindowStats window_;
    std::vector<sim::SimTime> latencies_;
    std::vector<std::string> stream_;
    std::array<std::array<int64_t, kCodes>, kOps> tally_{};
    int64_t returned_ = 0;
    double returned_sum_us_ = 0.0;
    std::vector<std::string> errors_;
    std::vector<std::string> created_ok_;
    std::unordered_set<std::string> moved_or_deleted_;
};

inline sim::Task<OpResult>
RecordingClient::execute(Op op)
{
    sim::Simulation& sim = owner_.sim_;
    sim::Span span = sim.tracer().start_trace("bench", op_name(op.type));
    OpType type = op.type;
    std::string path = op.path;
    std::string dst = op.dst;
    sim::SimTime issued = sim.now();
    OpResult result = co_await inner_.execute(std::move(op));
    span.end();
    owner_.record(type, path, dst, result.status.code(), issued);
    co_return result;
}

}  // namespace lfs::perfbench
