/**
 * @file
 * perfbench — the gpuperf benchmark. Runs one named workload against
 * the public API for --seconds, checks every response bit-for-bit
 * against an in-process reference, and prints the metrics; the last
 * stdout line is the JSON result. --trace 1 runs the workload's
 * inputs through the piecewise, span-traced pipeline instead and
 * prints the per-layer metrics. See perfbench/README.md.
 */

#include <csignal>
#include <exception>
#include <iostream>

#include "workloads.h"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // A peer closing a socket mid-write must surface as an error, not
    // kill the benchmark.
    std::signal(SIGPIPE, SIG_IGN);

    Args args;
    if (!parseArgs(argc, argv, &args))
        return 2;
    std::cout << "perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0)
              << " threads=" << hwThreads() << std::endl;

    Report rep;
    try {
        if (args.workload == "cold-spec")
            runColdSpec(args, rep);
        else if (args.workload == "what-if-grid")
            runWhatIfGrid(args, rep);
        else if (args.workload == "serve-mixed")
            runServeMixed(args, rep);
        else {
            std::cerr << "unknown workload '" << args.workload << "'\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    if (rep.attempted() == 0) {
        std::cerr << "perfbench: the run attempted nothing\n";
        return 1;
    }
    rep.note("error_rate",
             static_cast<double>(rep.failed()) /
                 static_cast<double>(rep.attempted()));
    std::cout << rep.json() << std::endl;
    return rep.correct() ? 0 : 1;
}
