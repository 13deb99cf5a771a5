/**
 * @file
 * Cold calibration wall time: the microbenchmark sweep (paper Figures
 * 2-3) run serially (no pool) against the same sweep fanned out over
 * a 4-thread pool with ThreadPool::parallelFor.
 *
 * Every repeat builds a fresh device and calibrator (a cold spec), so
 * each timing is one full sweep: warp counts x (four instruction
 * benches + the shared copy), each a funcsim run plus a timing replay.
 * Every table is compared byte for byte against the first serial
 * sweep before any time is reported — a faster sweep that drifts is a
 * bug, not a speedup.
 *
 * Gate: median serial time / median pool time >= 3x with >= 4
 * hardware threads. With fewer, or with GPUPERF_THREAD_GATE=report
 * (shared CI runners, like bench_batch_throughput's thread gate), the
 * ratio is reported only. Default spec: the GT200 cut to 6 SMs and 16
 * warps/SM (80 jobs); --full calibrates the full GTX 285.
 *
 * Writes bench_calibration.json next to the binary so CI can archive
 * the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"

using namespace gpuperf;

namespace {

constexpr int kRepeats = 5;
constexpr int kPoolThreads = 4;

arch::GpuSpec
benchSpec(bool full)
{
    arch::GpuSpec s = arch::GpuSpec::gtx285();
    if (full)
        return s;
    s.name = "GT200-6sm";
    s.numSms = 6;
    s.maxWarpsPerSm = 16;
    s.maxThreadsPerSm = 512;
    s.validate();
    return s;
}

/** Seconds for one cold sweep of @p spec; the tables land in @p out. */
double
timeSweep(const arch::GpuSpec &spec, ThreadPool *pool,
          std::shared_ptr<const model::CalibrationTables> *out)
{
    model::SimulatedDevice device(spec);
    model::Calibrator calibrator(device);
    const auto start = std::chrono::steady_clock::now();
    *out = calibrator.sharedTables(pool);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool
sameTables(const model::CalibrationTables &a,
           const model::CalibrationTables &b)
{
    if (a.maxWarps != b.maxWarps || a.bytesPerPass != b.bytesPerPass ||
        !sameBits(a.sharedPassThroughput, b.sharedPassThroughput))
        return false;
    for (int t = 0; t < arch::kNumInstrTypes; ++t) {
        if (!sameBits(a.instrThroughput[t], b.instrThroughput[t]))
            return false;
    }
    return true;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string s = "[";
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", v[i]);
        s += buf;
    }
    return s + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const arch::GpuSpec spec = benchSpec(opts.full);
    const size_t jobs = model::Calibrator::sweepWarpCounts(spec).size() *
                        (arch::kNumInstrTypes + 1);

    printBanner(std::cout, "cold calibration: serial vs " +
                               std::to_string(kPoolThreads) +
                               "-thread pool (" + spec.name + ", " +
                               std::to_string(jobs) + " jobs)");

    ThreadPool pool(kPoolThreads);
    std::shared_ptr<const model::CalibrationTables> reference;
    std::vector<double> serial_s;
    std::vector<double> pool_s;
    Table t({"repeat", "serial s", "pool s", "speedup"});
    for (int r = 0; r < kRepeats; ++r) {
        std::shared_ptr<const model::CalibrationTables> serial;
        std::shared_ptr<const model::CalibrationTables> fanned;
        serial_s.push_back(timeSweep(spec, nullptr, &serial));
        pool_s.push_back(timeSweep(spec, &pool, &fanned));
        if (!reference)
            reference = serial;
        if (!sameTables(*reference, *serial) ||
            !sameTables(*reference, *fanned)) {
            std::cerr << "repeat " << r
                      << ": tables differ from the first serial sweep "
                         "— refusing to benchmark a wrong result\n";
            return 1;
        }
        t.addRow({std::to_string(r + 1), Table::num(serial_s.back(), 3),
                  Table::num(pool_s.back(), 3),
                  Table::num(serial_s.back() / pool_s.back(), 2) + "x"});
    }
    bench::emit(t, opts);

    const double serial_median = median(serial_s);
    const double pool_median = median(pool_s);
    const double speedup = serial_median / pool_median;
    const int hw_threads = ThreadPool::resolveThreads(0);
    std::cout << "\nmedian of " << kRepeats << ": serial "
              << Table::num(serial_median, 3) << " s, pool "
              << Table::num(pool_median, 3) << " s, speedup "
              << Table::num(speedup, 2) << "x on " << hw_threads
              << " hardware threads (gate: >= 3x with >= 4 hardware "
                 "threads; tables bit-identical)\n";
    bool gate_ok = speedup >= 3.0;
    if (hw_threads < 4) {
        std::cout << "calibration gate not applicable: this machine "
                     "cannot run 4 sweep jobs concurrently\n";
        gate_ok = true;
    } else if (const char *mode = std::getenv("GPUPERF_THREAD_GATE");
               !gate_ok && mode && std::string(mode) == "report") {
        std::cout << "calibration gate in report-only mode "
                     "(GPUPERF_THREAD_GATE=report)\n";
        gate_ok = true;
    }

    {
        std::ofstream json("bench_calibration.json");
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\n  \"bench\": \"calibration\",\n  \"gate\": \"%s\",\n"
            "  \"spec\": \"%s\",\n  \"jobs\": %zu,\n"
            "  \"hardware_threads\": %d,\n  \"pool_threads\": %d,\n"
            "  \"repeats\": %d,\n  \"bit_identical\": true,\n"
            "  \"serial_median_s\": %.4f,\n  \"pool_median_s\": %.4f,\n"
            "  \"speedup\": %.3f,\n",
            gate_ok ? "pass" : "fail", spec.name.c_str(), jobs, hw_threads,
            kPoolThreads, kRepeats, serial_median, pool_median, speedup);
        json << buf << "  \"serial_s\": " << jsonList(serial_s)
             << ",\n  \"pool_s\": " << jsonList(pool_s) << "\n}\n";
    }

    if (!gate_ok) {
        std::cerr << "calibration fan-out gate FAILED\n";
        return 1;
    }
    return 0;
}
