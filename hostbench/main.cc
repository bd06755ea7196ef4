/**
 * @file
 * hostbench — the simulator's host-time benchmark binary.
 *
 *   hostbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   hostbench selftest
 *
 * `run` prints one JSON line: correct / attempted / failed, the
 * metrics with their kind ("host" or "simulated"), failure
 * messages, context notes and build metadata. run.py builds this
 * binary, attaches units and prints the benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "stats/export.hh"
#include "workloads.hh"

namespace hostbench
{
int runSelfTest();
} // namespace hostbench

namespace
{

using hostbench::Report;
using rlr::stats::json::escape;

std::string
quoted(const std::string &s)
{
    std::string out(1, '"');
    out += escape(s);
    out += '"';
    return out;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
stringArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ',';
        out += quoted(items[i]);
    }
    return out + "]";
}

std::string
toJson(const Report &rep, const hostbench::RunConfig &cfg, bool trace)
{
    std::string out = "{\"correct\":";
    out += rep.failed == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(rep.attempted);
    out += ",\"failed\":" + std::to_string(rep.failed);
    out += ",\"metrics\":{";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Report::Metric &m = rep.metrics[i];
        if (i)
            out += ',';
        out += quoted(m.name);
        out += ":{\"value\":" + number(m.value);
        out += ",\"kind\":" + quoted(m.kind) + "}";
    }
    out += "},\"errors\":" + stringArray(rep.errors);
    out += ",\"notes\":" + stringArray(rep.notes);
    out += ",\"meta\":{\"workload\":" + quoted(cfg.workload);
    out += ",\"seed\":" + std::to_string(cfg.seed);
    out += ",\"seconds\":" + number(cfg.seconds);
    out += ",\"trace\":";
    out += trace ? "1" : "0";
    out += ",\"compiler\":" + quoted(HOSTBENCH_COMPILER);
    out += ",\"build_type\":" + quoted(HOSTBENCH_BUILD_TYPE);
    out += ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency());
    out += "}}";
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       hostbench selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "selftest")
        return hostbench::runSelfTest();
    if (argc < 2 || std::string(argv[1]) != "run" || argc % 2 != 0)
        return usage();

    hostbench::RunConfig cfg;
    bool trace = false;
    try {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i], value = argv[i + 1];
            if (key == "--workload")
                cfg.workload = value;
            else if (key == "--seed")
                cfg.seed = std::stoull(value);
            else if (key == "--seconds")
                cfg.seconds = std::stod(value);
            else if (key == "--trace")
                trace = std::stoi(value) != 0;
            else
                return usage();
        }
        if (cfg.workload.empty() || !(cfg.seconds > 0.0))
            return usage();

        if (std::string(HOSTBENCH_BUILD_TYPE) != "Release") {
            std::fprintf(stderr,
                         "hostbench: WARNING: %s build; host times are "
                         "not comparable with Release numbers\n",
                         HOSTBENCH_BUILD_TYPE);
        }
        const Report rep = trace ? hostbench::runTraced(cfg)
                                 : hostbench::runEndToEnd(cfg);
        std::printf("%s\n", toJson(rep, cfg, trace).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
