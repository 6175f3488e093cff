/**
 * @file
 * jmbench_rep: one benchmark rep of one workload, in a fresh process.
 *
 *   jmbench_rep WORKLOAD [--seed N] [--smoke] [--trace | --setup-only]
 *   jmbench_rep --micro [--seed N] [--smoke]
 *   jmbench_rep --fingerprint
 *
 * A rep drives the public workload and machine calls at machine
 * defaults — it sets no host toggle — times setup, run and validate
 * from outside, checks the simulated result, and prints one JSON object
 * on stdout. benchmark/jmbench.py starts one process per rep, so every
 * rep boots cold, and reads the peak RSS of the process from wait4.
 *
 * --trace adds the kernel profile, the counter-registry snapshot and the
 * rep's spans; --setup-only times one cold setup and stops there. --micro
 * runs the layer microbenches instead of a workload. Span timestamps are
 * steady_clock nanoseconds, which on Linux is CLOCK_MONOTONIC, the clock
 * jmbench.py stamps its own spans with.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "jasm/assembler.hh"
#include "net/mesh_network.hh"
#include "runtime/jos.hh"
#include "trace/counter_registry.hh"
#include "workloads/apps.hh"
#include "workloads/driver.hh"
#include "workloads/innet.hh"
#include "workloads/micro.hh"

using namespace jmsim;
using namespace jmsim::workloads;

namespace
{

/** Workload sizes: the defaults the benchmark reports, and the shrunken
 *  ones `run.sh --smoke` uses to check the plumbing in seconds. */
struct Sizes
{
    unsigned radixNodes, radixKeys;
    unsigned fig4Nodes;
    Cycle fig4Window;
    unsigned sparseNodes;
    Cycle sparseWindow;
    unsigned hotNodes, hotOps;
    unsigned seqKeys;
    unsigned meshNodes, meshMsgsPerNode;
};

constexpr Sizes kDefaultSizes{512, 32768, 512,  20000, 4096, 1'000'000,
                              512, 1024,  16384, 512,  64};
constexpr Sizes kSmokeSizes{64, 4096, 64, 4000, 512, 100'000,
                            64, 64,   2048, 64,  16};

constexpr unsigned kSparseHotNodes = 8;
/** runSparseActivity's seed only picks how many tokens circulate
 *  (2 + seed % 3), which moves its work by ~20%. Every benchmark seed
 *  runs the 3-token load, so runs of different seeds do the same work
 *  and the probe's traffic is otherwise fixed. */
constexpr std::uint32_t kSparseProbeSeed = 1;
constexpr Cycle kHotspotCycleLimit = 80'000'000;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;   ///< index into the rep's span list; -1 = the rep
};

std::vector<Span> spans;

/** Call @p f inside a span named @p name; its duration goes to
 *  @p seconds when non-null. A throwing call leaves no span. */
template <class F>
auto
timed(const char *name, int parent, double *seconds, F &&f)
{
    const std::int64_t t0 = nowNs();
    auto close = [&] {
        const std::int64_t t1 = nowNs();
        spans.push_back({name, t0, t1, parent});
        if (seconds)
            *seconds = static_cast<double>(t1 - t0) * 1e-9;
    };
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        close();
    } else {
        auto result = f();
        close();
        return result;
    }
}

int
lastSpan()
{
    return static_cast<int>(spans.size()) - 1;
}

/** Shards a run of @p m resolves to. Written as a template so the
 *  benchmark still builds if the threaded kernel and its accessor are
 *  deleted: the serial kernel is then the only one. */
template <class Machine>
unsigned
threadsOf(const Machine &m)
{
    if constexpr (requires { m.resolvedThreads(); })
        return m.resolvedThreads();
    else
        return 1;
}

// ---- JSON output ---------------------------------------------------

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A flat JSON object built field by field. */
class Json
{
  public:
    Json &
    raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + value;
        return *this;
    }
    Json &str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    Json &num(const std::string &key, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return raw(key, buf);
    }
    Json &count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
spansJson()
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += (i ? ", " : "") + Json()
                                     .str("name", s.name)
                                     .count("start_ns", s.start)
                                     .count("end_ns", s.end)
                                     .raw("parent", std::to_string(s.parent))
                                     .text();
    }
    return out + "]";
}

// ---- workload reps -------------------------------------------------

/** What one rep measured. */
struct Rep
{
    double setupS = 0;
    double runS = 0;
    RunResult run;          ///< stop state, profile, counters, footprint
    unsigned threads = 0;   ///< resolved shards (traced reps only)
};

void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error(what);
}

Rep
repRadix(const Sizes &sz, std::uint32_t seed)
{
    Rep rep;
    RadixConfig c;
    c.nodes = sz.radixNodes;
    c.keys = sz.radixKeys;
    c.seed = seed;
    PreparedApp app = timed("setup", -1, &rep.setupS,
                            [&] { return prepareRadixSort(c); });
    rep.threads = threadsOf(*app.machine);
    rep.run = timed("run", -1, &rep.runS,
                    [&] { return app.machine->run(app.cycleLimit); });
    timed("validate", -1, nullptr, [&] {
        check(rep.run.reason == StopReason::AllHalted,
              "radix sort did not finish");
        app.validate(*app.machine);   // fatal() on any misplaced key
    });
    return rep;
}

Rep
repFig4(const Sizes &sz, std::uint32_t seed)
{
    Rep rep;
    auto m = timed("setup", -1, &rep.setupS,
                   [&] { return buildFig4Machine(sz.fig4Nodes, seed); });
    rep.threads = threadsOf(*m);
    rep.run = timed("run", -1, &rep.runS,
                    [&] { return m->run(sz.fig4Window); });
    timed("validate", -1, nullptr, [&] {
        check(rep.run.cycles == sz.fig4Window,
              "fig4 load stopped before its window");
        check(counterValue(rep.run.counters, "net.messages_delivered") > 0,
              "fig4 load delivered no messages");
    });
    return rep;
}

Rep
repSparse(const Sizes &sz, bool traced)
{
    Rep rep;
    // runSparseActivity boots and runs in one call and times both
    // phases itself; the outer span covers the call, and the two inner
    // spans are placed from the probe's own timers.
    const TrafficProbe p =
        timed("runSparseActivity", -1, nullptr, [&] {
            return runSparseActivity(sz.sparseNodes, kSparseHotNodes,
                                     sz.sparseWindow, kSparseProbeSeed);
        });
    const int call = lastSpan();
    const std::int64_t t0 = spans[call].start;
    const auto boot_ns = static_cast<std::int64_t>(p.bootSeconds * 1e9);
    const auto run_ns = static_cast<std::int64_t>(p.hostSeconds * 1e9);
    spans.push_back({"setup", t0, t0 + boot_ns, call});
    spans.push_back({"run", t0 + boot_ns, t0 + boot_ns + run_ns, call});
    rep.setupS = p.bootSeconds;
    rep.runS = p.hostSeconds;
    rep.run = p.run;
    timed("validate", -1, nullptr, [&] {
        check(rep.run.cycles == sz.sparseWindow,
              "sparse activity stopped before its window");
        check(p.netStats.messagesDelivered > 0,
              "sparse activity delivered no messages");
    });
    if (traced) {
        // The probe keeps no machine, so resolve auto threads on an
        // unloaded machine of the same size (outside every timed span).
        const JMachine idle(standardConfig(sz.sparseNodes),
                            assemble(jos::withKernel(
                                "idle.jasm", "boot:\n    HALT\n", false)));
        rep.threads = threadsOf(idle);
    }
    return rep;
}

Rep
repHotspot(const Sizes &sz)
{
    Rep rep;
    auto m = timed("setup", -1, &rep.setupS, [&] {
        return buildFaaHotspotMachine(sz.hotNodes, sz.hotOps, true);
    });
    rep.threads = threadsOf(*m);
    rep.run = timed("run", -1, &rep.runS,
                    [&] { return m->run(kHotspotCycleLimit); });
    timed("validate", -1, nullptr, [&] {
        check(rep.run.reason != StopReason::CycleLimit,
              "hotspot did not finish");
        const NetOps *nops = m->netops();
        const auto want = static_cast<std::int64_t>(sz.hotNodes) * sz.hotOps;
        check(nops && nops->slotValue(0) == want,
              "hotspot counter is not nodes * ops");
        check(outInts(*m, 0).size() == 1, "hotspot stamped no result");
    });
    return rep;
}

/** Time one cold setup of @p what and nothing else: the extra setup
 *  samples that steady the setup_s median. The sparse probe has no
 *  separate build call, so it runs a one-cycle window. */
double
setupOnly(const std::string &what, const Sizes &sz, std::uint32_t seed)
{
    double s = 0;
    if (what == "radix_512") {
        RadixConfig c;
        c.nodes = sz.radixNodes;
        c.keys = sz.radixKeys;
        c.seed = seed;
        timed("setup", -1, &s, [&] { return prepareRadixSort(c); });
    } else if (what == "fig4_sat_512") {
        timed("setup", -1, &s,
              [&] { return buildFig4Machine(sz.fig4Nodes, seed); });
    } else if (what == "sparse_4k") {
        s = runSparseActivity(sz.sparseNodes, kSparseHotNodes, 1,
                              kSparseProbeSeed)
                .bootSeconds;
    } else if (what == "hotspot_faa_512") {
        timed("setup", -1, &s, [&] {
            return buildFaaHotspotMachine(sz.hotNodes, sz.hotOps, true);
        });
    } else {
        throw std::invalid_argument("unknown workload " + what);
    }
    return s;
}

std::string
repJson(const char *workload, std::uint32_t seed, const Rep &rep,
        bool traced)
{
    const auto &c = rep.run.counters;
    Json sig;
    sig.count("cycles", rep.run.cycles);
    for (const char *name : {"proc.instructions", "net.messages_delivered",
                             "net.flits_routed"})
        sig.count(name, counterValue(c, name));

    Json out;
    out.str("workload", workload)
        .count("seed", seed)
        .flag("ok", true)
        .num("setup_s", rep.setupS)
        .num("run_s", rep.runS)
        .raw("signature", sig.text());
    if (traced) {
        const KernelProfile &p = rep.run.profile;
        Json prof;
        prof.num("node_s", p.nodeSeconds)
            .num("net_s", p.netSeconds)
            .num("commit_s", p.commitSeconds)
            .count("stepped_cycles", p.steppedCycles)
            .count("skipped_cycles", p.skippedCycles);
        Json counters;
        for (const CounterSample &s : c)
            counters.count(s.name, s.value);
        out.count("threads", rep.threads)
            .count("footprint_bytes", rep.run.footprintBytes)
            .raw("profile", prof.text())
            .raw("counters", counters.text())
            .raw("spans", spansJson());
    }
    return out.text();
}

// ---- layer microbenches --------------------------------------------

/** Median seconds of @p reps calls to @p make; what it returns is
 *  destroyed after its span closes, so teardown is not timed. */
template <class F>
double
medianSeconds(unsigned reps, const char *name, int parent, F &&make)
{
    std::vector<double> s(reps);
    for (double &t : s)
        [[maybe_unused]] const auto made = timed(name, parent, &t, make);
    std::sort(s.begin(), s.end());
    return s[reps / 2];
}

/** Counts whole messages as they reach their destination. */
class CountingSink : public DeliverSink
{
  public:
    MeshNetwork *net = nullptr;
    std::uint64_t *delivered = nullptr;

    bool canAcceptFlit(const Flit &) override { return true; }

    void
    acceptFlit(const Flit &flit, Cycle now) override
    {
        Message &msg = net->pool().get(flit.msg);
        if (msg.tailAt(flit.index)) {
            msg.deliverCycle = now;
            net->noteMessageDelivered(msg);
            ++*delivered;
        }
    }
};

/**
 * Bare-fabric throughput: every node of a @p nodes mesh sends
 * @p per_node 8-word messages to seeded random other nodes, injecting
 * as fast as its port accepts, and the mesh steps until every message
 * is delivered. Returns flit-hops (net.flits_routed) per host second.
 */
double
bareMeshMhops(unsigned nodes, unsigned per_node, std::uint32_t seed,
              int parent)
{
    constexpr unsigned kWords = 8;
    const MeshDims dims = MeshDims::forNodeCount(nodes);
    MeshNetwork net(dims);
    CounterRegistry reg;
    net.registerCounters(reg);
    std::uint64_t delivered = 0;
    std::vector<CountingSink> sinks(dims.nodes());
    for (NodeId id = 0; id < dims.nodes(); ++id) {
        sinks[id].net = &net;
        sinks[id].delivered = &delivered;
        net.setDeliverSink(id, &sinks[id]);
    }

    std::mt19937 rng(seed);
    std::vector<std::vector<MsgHandle>> outbox(dims.nodes());
    for (NodeId src = 0; src < dims.nodes(); ++src) {
        for (unsigned k = 0; k < per_node; ++k) {
            NodeId dest = static_cast<NodeId>(rng() % (dims.nodes() - 1));
            dest += dest >= src ? 1 : 0;
            const MsgHandle h = net.pool().alloc();
            Message &msg = net.pool().get(h);
            msg.src = src;
            msg.dest = dest;
            msg.destAddr = dims.toCoord(dest);
            MsgHeader hdr;
            hdr.length = kWords;
            msg.words.push_back(hdr.encode());
            for (unsigned w = 1; w < kWords; ++w)
                msg.words.push_back(Word::makeInt(static_cast<std::int32_t>(w)));
            msg.finalized = true;
            outbox[src].push_back(h);
        }
    }

    const std::uint64_t total =
        static_cast<std::uint64_t>(dims.nodes()) * per_node;
    std::vector<std::size_t> next_msg(dims.nodes(), 0);
    std::vector<std::uint32_t> next_flit(dims.nodes(), 0);
    std::vector<NodeId> senders(dims.nodes());
    for (NodeId id = 0; id < dims.nodes(); ++id)
        senders[id] = id;
    double seconds = 0;
    timed("bare_mesh", parent, &seconds, [&] {
        Cycle now = 0;
        while (delivered < total) {
            check(now < 50'000'000, "bare mesh did not drain");
            std::size_t kept = 0;
            for (const NodeId src : senders) {
                while (next_msg[src] < outbox[src].size() &&
                       net.canInject(src, 0)) {
                    const MsgHandle h = outbox[src][next_msg[src]];
                    const Message &msg = net.pool().get(h);
                    Flit f;
                    f.msg = h;
                    f.index = next_flit[src];
                    f.tail = msg.tailAt(f.index);
                    net.injectFlit(src, f);
                    if (++next_flit[src] == msg.flitCount()) {
                        next_flit[src] = 0;
                        ++next_msg[src];
                    }
                }
                if (next_msg[src] < outbox[src].size())
                    senders[kept++] = src;
            }
            senders.resize(kept);
            net.step(now++);
        }
    });
    return static_cast<double>(reg.value("net.flits_routed")) / seconds /
           1e6;
}

std::string
microJson(const Sizes &sz, std::uint32_t seed)
{
    spans.push_back({"micro", nowNs(), 0, -1});   // closed below
    const int root = lastSpan();
    const auto sources =
        jos::withKernel("jmbench.jasm", "boot:\n    HALT\n", true, true);
    const double assemble_s = medianSeconds(
        5, "assemble", root, [&] { return assemble(sources); });
    // Constructor cost only: the program copy it takes by value is
    // included, the machine's teardown is not.
    const Program prog = assemble(
        jos::withKernel("jmbench.jasm", "boot:\n    HALT\n", false));
    auto build = [&](unsigned nodes) {
        return [&prog, nodes] {
            return std::make_unique<JMachine>(standardConfig(nodes), prog);
        };
    };
    const double build512_s = medianSeconds(3, "build512", root, build(512));
    const double build4k_s = medianSeconds(3, "build4k", root, build(4096));

    double seq_s = 0;
    const Cycle seq_cycles = timed("radix_sequential", root, &seq_s, [&] {
        return runRadixSequential(sz.seqKeys, 28, seed);
    });
    const double mhops =
        bareMeshMhops(sz.meshNodes, sz.meshMsgsPerNode, seed, root);
    spans[root].end = nowNs();

    return Json()
        .flag("ok", true)
        .num("assemble_s", assemble_s)
        .num("build512_s", build512_s)
        .num("build4k_s", build4k_s)
        .num("seq_mcycles_per_s", static_cast<double>(seq_cycles) / seq_s / 1e6)
        .num("bare_mhops_per_s", mhops)
        .raw("spans", spansJson())
        .text();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: jmbench_rep WORKLOAD [--seed N] [--smoke] "
                 "[--trace | --setup-only]\n"
                 "       jmbench_rep --micro [--seed N] [--smoke]\n"
                 "       jmbench_rep --fingerprint\n"
                 "  WORKLOAD: radix_512 | fig4_sat_512 | sparse_4k | "
                 "hotspot_faa_512\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string what = argv[1];
    std::uint32_t seed = 1;
    bool smoke = false;
    bool traced = false;
    bool setup_only = false;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            char *end = nullptr;
            const unsigned long v = std::strtoul(argv[++i], &end, 10);
            if (*end != '\0' || v > 0xFFFFFFFFul)
                return usage();
            seed = static_cast<std::uint32_t>(v);
        } else if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--trace")) {
            traced = true;
        } else if (!std::strcmp(argv[i], "--setup-only")) {
            setup_only = true;
        } else {
            return usage();
        }
    }
    const Sizes &sz = smoke ? kSmokeSizes : kDefaultSizes;

    if (what == "--fingerprint") {
        std::printf("%s\n",
                    Json()
                        .str("compiler", JMBENCH_COMPILER)
                        .str("build_type", JMBENCH_BUILD_TYPE)
                        .count("hardware_concurrency",
                               std::thread::hardware_concurrency())
                        .text()
                        .c_str());
        return 0;
    }
    try {
        if (what == "--micro") {
            std::printf("%s\n", microJson(sz, seed).c_str());
            return 0;
        }
        if (setup_only) {
            std::printf("%s\n", Json()
                                    .str("workload", what)
                                    .flag("ok", true)
                                    .num("setup_s", setupOnly(what, sz, seed))
                                    .text()
                                    .c_str());
            return 0;
        }
        Rep rep;
        if (what == "radix_512")
            rep = repRadix(sz, seed);
        else if (what == "fig4_sat_512")
            rep = repFig4(sz, seed);
        else if (what == "sparse_4k")
            rep = repSparse(sz, traced);
        else if (what == "hotspot_faa_512")
            rep = repHotspot(sz);
        else
            return usage();
        std::printf("%s\n", repJson(what.c_str(), seed, rep, traced).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::printf("%s\n", Json()
                                .str("workload", what)
                                .flag("ok", false)
                                .str("error", e.what())
                                .text()
                                .c_str());
        return 1;
    }
}
