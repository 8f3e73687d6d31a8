/**
 * @file
 * Benchmark driver: runs one named workload serially and prints one JSON
 * line per repetition (plus one with the replays of a traced run).
 * perfbench/run.py builds this program, runs it, and turns the lines into
 * metrics; see perfbench/README.md for the workloads and metrics.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *
 * Every repetition builds a fresh system, warms it up, measures a fixed
 * simulated window, drains, and checks the outputs, so its modelled
 * results depend only on the workload and the seed. --seconds sets how
 * many repetitions a run makes. With --trace 1 each untraced
 * repetition is paired with a traced one (Tracer armed, attribution on),
 * and the op/path stream of the first traced one is replayed through the
 * per-layer entry points.
 *
 * The driver reaches the system only through public APIs; it changes no
 * code under src/.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/harness.h"
#include "recording_dfs.h"
#include "src/cache/metadata_cache.h"
#include "src/core/partitioning.h"
#include "src/util/path.h"
#include "src/workload/path_population.h"
#include "src/workload/spotify_workload.h"

namespace lfs::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Kind { kClosedLoop, kSpotify };

/** One named workload (README.md says why each exists). */
struct Workload {
    const char* name;
    Kind kind;
    bool lambda;           ///< λFS; otherwise HopsFS (serverful, NDB)
    OpType op;             ///< closed loop: the measured op
    int clients;
    double vcpus;
    sim::SimTime idle;     ///< no load: pre-provisioned instances start
    sim::SimTime warmup;   ///< closed loop at full load (fills caches)
    sim::SimTime window;   ///< measured simulated window
    int slices;            ///< host-timed slices of the window
    double rep_s;          ///< typical host seconds of one repetition
};

// Industrial runs use the harness's bench scale: clients, vCPUs, store
// capacity and base rate are 1/8 of the paper's testbed.
constexpr double kIndustrialScale = 0.125;
// Fig. 8's reduced-cache λFS: per-deployment cache = 0.4x its share of
// the working set, so the working set exceeds the cache.
constexpr double kSmallCacheFraction = 0.4;
// A Pareto shape this large draws x_m (the base rate) to within 1e-8.
constexpr double kPinnedParetoAlpha = 1e9;

const Workload kWorkloads[] = {
    {"lfs-read-hot", Kind::kClosedLoop, true, OpType::kReadFile, 1024,
     512.0, sim::sec(2), sim::msec(400), sim::msec(200), 8, 2.0},
    {"lfs-create", Kind::kClosedLoop, true, OpType::kCreateFile, 256,
     512.0, sim::sec(2), sim::sec(1), sim::sec(2), 16, 3.3},
    {"spotify-smallcache", Kind::kSpotify, true, OpType::kCount, 128,
     512.0 * kIndustrialScale / 2, sim::sec(5), 0, sim::sec(30), 30, 2.0},
    {"hopsfs-read", Kind::kClosedLoop, false, OpType::kReadFile, 1024,
     512.0, sim::sec(2), sim::msec(300), sim::msec(500), 8, 0.7},
};

/** The standard microbenchmark tree: 4681 dirs, 9362 files. */
ns::TreeSpec
bench_tree_spec()
{
    return ns::TreeSpec{"/bench", 4, 8, 2};
}

/** The bench-scale industrial tree (585 dirs, 6 files each). */
ns::TreeSpec
scaled_tree_spec()
{
    return ns::TreeSpec{
        "/bench", 3, 8,
        std::max(4, static_cast<int>(std::lround(48 * kIndustrialScale)))};
}

/** A built system under test. Members destroy in reverse order. */
struct System {
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<workload::Dfs> dfs;
    std::unique_ptr<RecordingDfs> rec;
    ns::BuiltTree tree;
    int deployments = 16;
    size_t cache_bytes = 0;
    double build_s = 0.0;
    size_t inodes = 0;
    const core::NamespacePartitioner* partitioner = nullptr;
};

ns::BuiltTree
timed_build(ns::NamespaceTree& tree, const ns::TreeSpec& spec, System& s)
{
    auto t0 = Clock::now();
    ns::BuiltTree out =
        ns::build_balanced_tree(tree, spec, ns::UserContext{}, 0);
    s.build_s += seconds_since(t0);
    s.inodes += tree.inode_count();
    return out;
}

System
make_system(const Workload& w, bool traced)
{
    System s;
    s.sim = std::make_unique<sim::Simulation>();
    s.sim->set_attribution(traced);
    const int vms = 8;
    const int per_vm = std::max(1, w.clients / vms);
    if (w.kind == Kind::kSpotify) {
        core::LambdaFsConfig config = bench::make_lambda_config(
            w.vcpus, vms, per_vm, kIndustrialScale);
        ns::NamespaceTree sizing;
        timed_build(sizing, scaled_tree_spec(), s);
        config.name_node.cache_bytes = static_cast<size_t>(
            static_cast<double>(sizing.total_metadata_bytes()) /
            config.num_deployments * kSmallCacheFraction);
        auto fs = std::make_unique<core::LambdaFs>(*s.sim, config);
        s.tree = timed_build(fs->authoritative_tree(), scaled_tree_spec(), s);
        s.deployments = config.num_deployments;
        s.cache_bytes = config.name_node.cache_bytes;
        s.partitioner = &fs->partitioner();
        s.dfs = std::move(fs);
    } else if (w.lambda) {
        core::LambdaFsConfig config =
            bench::make_lambda_config(w.vcpus, vms, per_vm);
        auto fs = std::make_unique<core::LambdaFs>(*s.sim, config);
        s.tree = timed_build(fs->authoritative_tree(), bench_tree_spec(), s);
        s.deployments = config.num_deployments;
        s.cache_bytes = config.name_node.cache_bytes;
        s.partitioner = &fs->partitioner();
        s.dfs = std::move(fs);
    } else {
        auto fs = std::make_unique<hopsfs::HopsFs>(
            *s.sim,
            bench::make_hops_config("hopsfs", w.vcpus, false, vms, per_vm));
        s.tree = timed_build(fs->authoritative_tree(), bench_tree_spec(), s);
        s.cache_bytes = core::NameNodeConfig{}.cache_bytes;
        s.dfs = std::move(fs);
    }
    s.rec = std::make_unique<RecordingDfs>(*s.sim, *s.dfs, s.tree.files);
    return s;
}

// ----------------------------------------------------------------------
// Closed loop
// ----------------------------------------------------------------------

struct ClosedLoop {
    ClosedLoop(const ns::BuiltTree& tree, uint64_t seed)
        : population(tree, sim::Rng(seed)), scan(&tree.files)
    {
    }

    workload::PathPopulation population;
    /** Warm-up reads every built file once, in order, then samples. */
    const std::vector<std::string>* scan;
    size_t scanned = 0;
    OpType scan_op = OpType::kStat;
    OpType op = OpType::kReadFile;
    sim::SimTime measure_from = 0;
    sim::SimTime measure_until = 0;
    bool stop = false;
    int active = 0;
};

/**
 * One closed-loop client, until stopped. The warm-up first scans the
 * built files once (stat for write workloads), so every cache holds its
 * partition's files; then clients issue the measured op, so the window
 * opens at full load. Records the attribution ledger of window ops when
 * attribution is on.
 */
sim::Task<void>
closed_client(sim::Simulation& sim, workload::Dfs& dfs, size_t index,
              ClosedLoop& loop)
{
    while (!loop.stop) {
        const bool scan = sim.now() < loop.measure_from &&
                          loop.scanned < loop.scan->size();
        OpType type = scan ? loop.scan_op : loop.op;
        Op op;
        if (scan) {
            op.type = type;
            op.path = (*loop.scan)[loop.scanned++];
        } else {
            op = loop.population.make_op(type);
        }
        sim::SimTime issued = sim.now();
        OpResult result = co_await dfs.client(index).execute(std::move(op));
        if (sim.attribution() && type == loop.op &&
            sim.now() >= loop.measure_from &&
            sim.now() < loop.measure_until) {
            sim::SimTime latency = sim.now() - issued;
            result.ledger.finalize(latency);
            dfs.metrics().record_attribution(result.ledger, latency);
        }
    }
    --loop.active;
}

// ----------------------------------------------------------------------
// Span self time
// ----------------------------------------------------------------------

/**
 * Per-component self time of the client-rooted traces that began inside
 * the window: a span's duration minus the part of it its children cover.
 */
struct SpanSummary {
    std::map<std::string, double> self_us;
    int64_t traces = 0;
};

SpanSummary
summarize_spans(const sim::Tracer& tracer, sim::SimTime window_begin)
{
    std::vector<sim::SpanView> spans = tracer.snapshot();
    std::unordered_map<uint64_t, size_t> by_id;
    by_id.reserve(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        by_id.emplace(spans[i].span_id, i);
    }
    std::vector<std::vector<size_t>> children(spans.size());
    std::unordered_map<uint64_t, bool> trace_kept;
    for (size_t i = 0; i < spans.size(); ++i) {
        const sim::SpanView& s = spans[i];
        if (s.parent_id == 0) {
            trace_kept[s.trace_id] = std::strcmp(s.component, "client") == 0 &&
                                     s.start >= window_begin && s.end >= 0;
            continue;
        }
        auto it = by_id.find(s.parent_id);
        if (it != by_id.end()) {
            children[it->second].push_back(i);
        }
    }
    SpanSummary out;
    for (const auto& [id, kept] : trace_kept) {
        out.traces += kept ? 1 : 0;
    }
    std::vector<std::pair<sim::SimTime, sim::SimTime>> cover;
    for (size_t i = 0; i < spans.size(); ++i) {
        const sim::SpanView& s = spans[i];
        auto kept = trace_kept.find(s.trace_id);
        if (kept == trace_kept.end() || !kept->second || s.end < 0) {
            continue;
        }
        cover.clear();
        for (size_t c : children[i]) {
            sim::SimTime b = std::max(spans[c].start, s.start);
            sim::SimTime e = spans[c].end < 0 ? s.end
                                              : std::min(spans[c].end, s.end);
            if (e > b) {
                cover.emplace_back(b, e);
            }
        }
        std::sort(cover.begin(), cover.end());
        sim::SimTime covered = 0;
        sim::SimTime reach = s.start;
        for (const auto& [b, e] : cover) {
            if (e > reach) {
                covered += e - std::max(b, reach);
                reach = e;
            }
        }
        out.self_us[s.component] +=
            static_cast<double>(s.end - s.start - covered);
    }
    return out;
}

// ----------------------------------------------------------------------
// Replays
// ----------------------------------------------------------------------

volatile uint64_t g_sink = 0;

/**
 * Median ns/call of @p fn over the path stream: whole passes repeat until
 * at least three ran and 0.15 s passed.
 */
template <typename F>
double
replay_ns(size_t calls, F&& fn)
{
    std::vector<double> passes;
    auto t_all = Clock::now();
    uint64_t sink = 0;
    while (passes.size() < 3 || seconds_since(t_all) < 0.15) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < calls; ++i) {
            sink += fn(i);
        }
        passes.push_back(seconds_since(t0) * 1e9 /
                         static_cast<double>(calls));
    }
    g_sink = g_sink + sink;
    std::sort(passes.begin(), passes.end());
    return passes[passes.size() / 2];
}

/** ns per step()+schedule() pair at a standing backlog of @p backlog. */
double
kernel_replay_ns(size_t backlog, uint64_t seed)
{
    std::vector<double> passes;
    auto t_all = Clock::now();
    while (passes.size() < 3 || seconds_since(t_all) < 0.15) {
        sim::Simulation ksim;
        sim::Rng rng(seed);
        uint64_t fired = 0;
        for (size_t i = 0; i < backlog; ++i) {
            ksim.schedule(rng.uniform_int(0, 10000), [&fired] { ++fired; });
        }
        const int kSteps = 200000;
        auto t0 = Clock::now();
        for (int i = 0; i < kSteps; ++i) {
            ksim.step();
            ksim.schedule(rng.uniform_int(0, 10000), [&fired] { ++fired; });
        }
        passes.push_back(seconds_since(t0) * 1e9 / kSteps);
        g_sink = g_sink + fired;
    }
    std::sort(passes.begin(), passes.end());
    return passes[passes.size() / 2];
}

void
print_replays(System& s, uint64_t seed)
{
    const std::vector<std::string>& paths = s.rec->stream();
    if (paths.empty()) {
        return;
    }
    ns::NamespaceTree& tree = s.dfs->authoritative_tree();
    core::NamespacePartitioner own(s.deployments);
    const core::NamespacePartitioner& part =
        s.partitioner != nullptr ? *s.partitioner : own;

    std::vector<std::unique_ptr<cache::MetadataCache>> caches;
    for (int d = 0; d < s.deployments; ++d) {
        caches.push_back(std::make_unique<cache::MetadataCache>(
            cache::CacheConfig{s.cache_bytes}));
    }
    std::vector<size_t> home;
    home.reserve(paths.size());
    for (const std::string& p : paths) {
        home.push_back(static_cast<size_t>(part.deployment_for(p)));
        auto resolved = tree.resolve(p, ns::UserContext{});
        if (resolved.ok()) {
            caches[home.back()]->put_chain(resolved->chain);
        }
    }

    const size_t n = paths.size();
    double parent = replay_ns(
        n, [&](size_t i) { return path::parent(paths[i]).size(); });
    double route = replay_ns(n, [&](size_t i) {
        return static_cast<size_t>(part.deployment_for(paths[i]));
    });
    double get = replay_ns(n, [&](size_t i) {
        return caches[home[i]]->get(paths[i]) ? size_t{1} : size_t{0};
    });
    double resolve = replay_ns(n, [&](size_t i) {
        return tree.resolve(paths[i], ns::UserContext{}).ok() ? size_t{1}
                                                              : size_t{0};
    });
    double kernel =
        kernel_replay_ns(std::max<size_t>(s.sim->peak_pending(), 1), seed);
    std::printf("{\"kind\":\"replay\",\"calls\":%zu,"
                "\"util.path_parent_ns\":%.17g,\"core.route_ns\":%.17g,"
                "\"cache.get_ns\":%.17g,\"ns.resolve_ns\":%.17g,"
                "\"sim.kernel_replay_ns\":%.17g}\n",
                n, parent, route, get, resolve, kernel);
}

// ----------------------------------------------------------------------
// One repetition
// ----------------------------------------------------------------------

std::string
one_line(std::string json)
{
    std::replace(json.begin(), json.end(), '\n', ' ');
    return json;
}

/** Mean due time of the ops an open loop offered, in simulated us. */
double
mean_due_us(const workload::SpotifyWorkload& wl)
{
    const sim::TimeSeries& offered = wl.offered_series();
    double due = 0.0;
    double n = 0.0;
    for (size_t i = 0; i < offered.bins(); ++i) {
        due += offered.sum_at(i) * static_cast<double>(i) *
               static_cast<double>(offered.bin_width());
        n += offered.sum_at(i);
    }
    return n > 0 ? due / n : 0.0;
}

/** High-water resident set of this process so far, in KiB. */
long
peak_rss_kb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

struct RepOptions {
    bool traced = false;
    bool replay = false;
};

/** Run one repetition and print its JSON line. */
void
run_rep(const Workload& w, uint64_t seed, RepOptions opt)
{
    auto t_rep = Clock::now();
    System s = make_system(w, opt.traced);
    sim::Simulation& sim = *s.sim;
    RecordingDfs& rec = *s.rec;

    std::unique_ptr<ClosedLoop> loop;
    std::unique_ptr<workload::SpotifyWorkload> open;
    if (w.kind == Kind::kClosedLoop) {
        loop = std::make_unique<ClosedLoop>(s.tree, seed);
        loop->op = w.op;
        loop->scan_op = is_read_op(w.op) ? w.op : OpType::kStat;
        loop->measure_from = w.idle + w.warmup;
        loop->measure_until = loop->measure_from + w.window;
    }
    sim.run_until(w.idle);
    for (size_t c = 0; loop && c < rec.client_count(); ++c) {
        ++loop->active;
        sim::spawn(closed_client(sim, rec, c, *loop));
    }
    // Set before the warm-up runs: run_until(begin) already completes the
    // ops due exactly at begin, and those belong to the window.
    const sim::SimTime begin = w.idle + w.warmup;
    const sim::SimTime end = begin + w.window;
    rec.set_window(w.kind == Kind::kClosedLoop ? w.op : OpType::kCount,
                   begin, end);
    sim.run_until(begin);
    const double setup_s = seconds_since(t_rep);

    rec.set_capture(opt.replay);
    if (opt.traced) {
        // Sized so that no span of the window is overwritten.
        sim.tracer().set_capacity(size_t{6} << 20);
        sim.tracer().set_annotations_enabled(false);
        sim.tracer().set_enabled(true);
    }
    std::string registry_begin = one_line(sim.metrics().to_json(sim.now()));
    const double cost_begin = s.dfs->cost_so_far();
    const uint64_t events_begin = sim.events_executed();
    if (w.kind == Kind::kSpotify) {
        workload::SpotifyConfig cfg;
        cfg.base_throughput = 25000.0 * kIndustrialScale;
        cfg.duration = w.window;
        cfg.num_client_vms = 8;
        cfg.seed = seed;
        // A steady offered rate: every epoch is pinned to the base rate and
        // the forced 7x peak epoch is off. With Pareto(2) bursts, or with
        // the peak epoch alone, the 2x overload they cause moves p50/p99.9
        // latency by 13-16% between seeds, more than any bound allows.
        cfg.pareto_alpha = kPinnedParetoAlpha;
        cfg.force_peak_burst = false;
        open = std::make_unique<workload::SpotifyWorkload>(sim, rec, s.tree,
                                                           cfg);
        open->start();
    }

    // The window runs in equal simulated slices, each timed on the host,
    // so run.py can take each slice's fastest repetition (README.md).
    std::string slices = "[";
    for (int i = 1; i <= w.slices; ++i) {
        const int64_t done_before = rec.window().completed;
        const uint64_t events_before = sim.events_executed();
        auto t_slice = Clock::now();
        sim.run_until(begin + w.window * i / w.slices);
        const double host_s = seconds_since(t_slice);
        char item[160];
        std::snprintf(item, sizeof(item), "%s[%lld,%llu,%.17g]",
                      i > 1 ? "," : "",
                      static_cast<long long>(rec.window().completed -
                                             done_before),
                      static_cast<unsigned long long>(sim.events_executed() -
                                                      events_before),
                      host_s);
        slices += item;
    }
    slices += "]";
    const uint64_t events = sim.events_executed() - events_begin;
    const double cost = s.dfs->cost_so_far() - cost_begin;
    std::string registry_end = one_line(sim.metrics().to_json(sim.now()));

    // Drain: closed-loop clients finish their op in flight; the open loop
    // works off its backlog. The cap only guards a runaway configuration.
    const sim::SimTime drain_deadline = end + sim::sec(600);
    if (loop) {
        loop->stop = true;
        while (loop->active > 0 && sim.now() < drain_deadline && sim.step()) {
        }
        if (loop->active > 0) {
            rec.add_error(std::to_string(loop->active) +
                          " clients never returned after the window");
        }
    } else {
        while (!open->finished() && sim.now() < drain_deadline &&
               sim.step()) {
        }
        const int64_t ended = static_cast<int64_t>(
            s.dfs->metrics().completed() + s.dfs->metrics().failed());
        if (open->offered() != ended || open->offered() != rec.returned()) {
            rec.add_error("offered " + std::to_string(open->offered()) +
                          " != completed+failed " + std::to_string(ended) +
                          " (returned " + std::to_string(rec.returned()) +
                          ")");
        }
    }
    sim.tracer().set_enabled(false);
    for (const std::string& p : rec.surviving_creates()) {
        if (!s.dfs->authoritative_tree().resolve(p, ns::UserContext{}).ok()) {
            rec.add_error("created " + p + " does not resolve after drain");
            break;
        }
    }

    const WindowStats& win = rec.window();
    double lateness_ms = 0.0;
    if (open) {
        lateness_ms = rec.returned() > 0
                          ? (rec.returned_completion_sum_us() /
                                 static_cast<double>(rec.returned()) -
                             mean_due_us(*open)) / 1e3
                          : 0.0;
    } else {
        const double n = static_cast<double>(win.completed + win.failed);
        lateness_ms =
            n > 0 ? (win.completion_sum_us - win.issue_sum_us) / n / 1e3 : 0;
    }

    std::string out = "{\"kind\":\"rep\",\"traced\":";
    out += opt.traced ? "true" : "false";
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\"setup_s\":%.17g,\"build_s\":%.17g,\"inodes\":%zu,"
        "\"events\":%llu,\"peak_backlog\":%zu,"
        "\"window_us\":%lld,\"completed\":%lld,\"failed\":%lld,"
        "\"cost_usd\":%.17g,\"lateness_ms\":%.17g,\"offered\":%lld,"
        "\"peak_rss_kb\":%ld,\"p50_us\":%lld,\"p999_us\":%lld",
        setup_s, s.build_s, s.inodes,
        static_cast<unsigned long long>(events), sim.peak_pending(),
        static_cast<long long>(w.window),
        static_cast<long long>(win.completed),
        static_cast<long long>(win.failed), cost, lateness_ms,
        static_cast<long long>(open ? open->offered() : rec.returned()),
        peak_rss_kb(), static_cast<long long>(rec.latency_percentile(50.0)),
        static_cast<long long>(rec.latency_percentile(99.9)));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"latency\":{\"count\":%llu,\"buckets\":[",
                  static_cast<unsigned long long>(win.latency.count()));
    out += buf;
    bool first = true;
    for (const auto& [le, n] : win.latency.nonzero_buckets()) {
        out += (first ? "[" : ",[") + std::to_string(le) + "," +
               std::to_string(n) + "]";
        first = false;
    }
    out += "]},\"tally\":[";
    first = true;
    for (size_t op = 0; op < RecordingDfs::kOps; ++op) {
        for (size_t code = 0; code < RecordingDfs::kCodes; ++code) {
            int64_t n = rec.tally()[op][code];
            if (n > 0) {
                out += std::string(first ? "" : ",") + "[" +
                       sim::json_quote(op_name(static_cast<OpType>(op))) +
                       "," + sim::json_quote(code_name(static_cast<Code>(
                                 code))) +
                       "," + std::to_string(n) + "]";
                first = false;
            }
        }
    }
    out += "],\"errors\":[";
    for (size_t i = 0; i < rec.errors().size(); ++i) {
        out += (i ? "," : "") + sim::json_quote(rec.errors()[i]);
    }
    out += "]";
    if (opt.traced) {
        SpanSummary spans = summarize_spans(sim.tracer(), begin);
        out += ",\"spans\":{\"traces\":" + std::to_string(spans.traces) +
               ",\"started\":" +
               std::to_string(sim.tracer().spans_started()) +
               ",\"dropped\":" +
               std::to_string(sim.tracer().spans_dropped()) +
               ",\"self_us\":{";
        first = true;
        for (const auto& [component, us] : spans.self_us) {
            std::snprintf(buf, sizeof(buf), "%s%s:%.17g", first ? "" : ",",
                          sim::json_quote(component).c_str(), us);
            out += buf;
            first = false;
        }
        out += "}}";
    }
    out += ",\"slices\":" + slices;
    out += ",\"registry_begin\":" + registry_begin +
           ",\"registry_end\":" + registry_end + "}";
    std::printf("%s\n", out.c_str());
    if (opt.replay) {
        print_replays(s, seed);
    }
    std::fflush(stdout);
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\n",
                 argv0);
    return 2;
}

}  // namespace
}  // namespace lfs::perfbench

int
main(int argc, char** argv)
{
    using namespace lfs::perfbench;
    std::string name;
    long long seed = -1;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        char* end = nullptr;
        if (flag == "--workload") {
            name = argv[i + 1];
            continue;
        }
        double v = std::strtod(argv[i + 1], &end);
        if (end == argv[i + 1] || *end != '\0') {
            return usage(argv[0]);
        }
        if (flag == "--seed") {
            seed = static_cast<long long>(v);
        } else if (flag == "--seconds") {
            seconds = v;
        } else if (flag == "--trace") {
            trace = static_cast<int>(v);
        } else {
            return usage(argv[0]);
        }
    }
    const Workload* w = nullptr;
    for (const Workload& cand : kWorkloads) {
        if (name == cand.name) {
            w = &cand;
        }
    }
    if (w == nullptr || seed < 0 || seconds <= 0 ||
        (trace != 0 && trace != 1)) {
        return usage(argv[0]);
    }
    const uint64_t s = static_cast<uint64_t>(seed);

    // A fixed repetition count per workload and --seconds, so that the
    // best-of statistics in run.py always draw from the same number.
    const int reps = std::max(
        3, static_cast<int>(std::lround(seconds / w->rep_s)));
    if (trace == 0) {
        for (int i = 0; i < reps; ++i) {
            run_rep(*w, s, RepOptions{false, false});
        }
    } else {
        for (int i = 0; i < (reps + 1) / 2; ++i) {
            run_rep(*w, s, RepOptions{false, false});
            run_rep(*w, s, RepOptions{true, i == 0});
        }
    }
    return 0;
}
