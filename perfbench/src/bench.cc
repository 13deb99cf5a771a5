#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "api/codecs.h"
#include "common/fnv.h"
#include "store/serializer.h"

namespace perfbench {

namespace {

void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload cold-spec|what-if-grid|serve-mixed"
                 " --seed N --seconds S [--trace 0|1]\n";
}

std::string
fmtNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

bool
parseArgs(int argc, char **argv, Args *args)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(argv[0]);
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args->workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args->seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args->seconds = std::stod(value);
            } else if (flag == "--trace") {
                args->trace = std::stoi(value) != 0;
            } else {
                usage(argv[0]);
                return false;
            }
        } catch (const std::exception &) {
            usage(argv[0]);
            return false;
        }
    }
    if (!have_workload || !(args->seconds > 0.0)) {
        usage(argv[0]);
        return false;
    }
    return true;
}

int
hwThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

std::pair<std::string, double>
supportedTail(const std::vector<double> &samples)
{
    // p supports a tail when n * (1 - p) >= 10 samples lie beyond it.
    const double n = static_cast<double>(samples.size());
    for (const auto &[label, p] :
         {std::pair<const char *, double>{"p99", 0.99},
          {"p90", 0.90},
          {"p50", 0.50}}) {
        if (n * (1.0 - p) >= 10.0)
            return {label, percentile(samples, p)};
    }
    return {"", 0.0};
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
digestResponse(const gpuperf::api::AnalysisResponse &resp, uint64_t h)
{
    gpuperf::store::ByteWriter w;
    gpuperf::api::writeResponse(w, resp);
    return gpuperf::fnv1a64(w.bytes(), h);
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- Report -------------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
    std::cout << "metric " << name << " = " << fmtNumber(value) << " "
              << unit << "\n";
}

void
Report::note(const std::string &name, const std::string &value)
{
    std::cout << "  " << name << ": " << value << std::endl;
}

void
Report::note(const std::string &name, double value,
             const std::string &unit)
{
    note(name, fmtNumber(value) + (unit.empty() ? "" : " " + unit));
}

void
Report::tally(uint64_t n, uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
    if (failed != 0)
        correct_ = false;
}

void
Report::fail(const std::string &why)
{
    correct_ = false;
    std::cout << "  CHECK FAILED: " << why << "\n";
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               fmtNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

// --- Tracer -------------------------------------------------------------

int
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.start = std::chrono::duration<double>(Clock::now() - epoch_).count();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request_;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[id].end =
        std::chrono::duration<double>(Clock::now() - epoch_).count();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::vector<double>
Tracer::durations(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(s.end - s.start);
    return out;
}

double
Tracer::total(const char *name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

std::vector<double>
Tracer::selfTimes(const char *name) const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (std::strcmp(spans_[i].name, name) == 0)
            out.push_back(self[i]);
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start\": " << fmtNumber(s.start)
            << ", \"end\": " << fmtNumber(s.end)
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}\n";
    }
    return static_cast<bool>(out);
}

// --- ScratchDir ---------------------------------------------------------

ScratchDir::ScratchDir(const std::string &tag)
{
    // Relative on purpose: Unix socket paths under it must stay short
    // however deep the checkout sits.
    path_ = ".bench_build/perfbench/work/" + tag + "-" +
            std::to_string(::getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

std::string
ScratchDir::fresh(const std::string &name)
{
    const std::string p = path_ + "/" + name;
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p;
}

} // namespace perfbench
