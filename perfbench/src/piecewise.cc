#include "piecewise.h"

#include <sys/socket.h>

#include <cmath>
#include <stdexcept>
#include <thread>

#include "api/codecs.h"
#include "api/registry.h"
#include "api/service.h"
#include "api/transport.h"
#include "common/socket.h"
#include "driver/sweep.h"
#include "funcsim/profile.h"
#include "model/report.h"
#include "store/serializer.h"

namespace perfbench {

namespace api = gpuperf::api;
namespace arch = gpuperf::arch;
namespace driver = gpuperf::driver;
namespace funcsim = gpuperf::funcsim;
namespace model = gpuperf::model;
namespace timing = gpuperf::timing;

Piecewise::Piecewise(Tracer &tracer, const std::string &store_dir)
    : tracer_(tracer)
{
    if (!store_dir.empty())
        resetStore(store_dir);
}

void
Piecewise::resetStore(const std::string &store_dir)
{
    retiredStoreStats_ = storeStats();
    profiles_ = std::make_unique<gpuperf::store::ProfileStore>(
        store_dir + "/profiles");
    timings_ = std::make_unique<gpuperf::store::TimingStore>(
        store_dir + "/timings");
    results_ = std::make_unique<gpuperf::store::ResultStore>(
        store_dir + "/results");
    storedProfiles_.clear();
    storedTimings_.clear();
    storedResults_.clear();
    benchMemos_.clear();
    forgetMemos();
}

void
Piecewise::setTables(const arch::GpuSpec &spec, TablesPtr tables)
{
    tables_[spec.fingerprint()] = std::move(tables);
}

void
Piecewise::forgetMemos()
{
    timingMemo_.clear();
    specs_.clear();
}

gpuperf::store::StoreStats
Piecewise::storeStats() const
{
    gpuperf::store::StoreStats s = retiredStoreStats_;
    if (profiles_) {
        s += profiles_->stats();
        s += timings_->stats();
        s += results_->stats();
    }
    return s;
}

Piecewise::SpecState &
Piecewise::specState(const arch::GpuSpec &spec, timing::ReplayEngine engine)
{
    const std::string fp = spec.fingerprint();
    auto it = specs_.find(fp);
    if (it != specs_.end())
        return it->second;
    const auto t = tables_.find(fp);
    if (t == tables_.end())
        throw std::runtime_error("no calibration tables for spec '" +
                                 spec.name + "'");
    SpecState st;
    st.tables = t->second;
    auto &memo = benchMemos_[fp];
    if (!memo)
        memo = std::make_shared<model::GlobalBenchMemo>();
    st.memo = memo;
    model::SessionConfig config;
    config.engine = engine;
    config.tables = st.tables;
    st.session = std::make_unique<model::AnalysisSession>(spec, config);
    st.session->calibrator().shareGlobalMemo(st.memo);
    return specs_.emplace(fp, std::move(st)).first->second;
}

void
Piecewise::clearCounts()
{
    counts_ = LayerCounts{};
}

void
Piecewise::expectCalibration()
{
    ++expected_.calibrations.misses;
    ++expected_.calibrations.writes;
}

namespace {

/** Model one lookup of @p key in a store holding @p stored: a hit, or
 *  a miss followed by the write of the computed entry. */
void
expectLookup(StoreOps *ops, std::set<std::string> *stored,
             const std::string &key)
{
    if (stored->count(key)) {
        ++ops->hits;
    } else {
        ++ops->misses;
        ++ops->writes;
        stored->insert(key);
    }
}

} // namespace

api::AnalysisResponse
Piecewise::run(const api::AnalysisRequest &req)
{
    // The executor shares profiles within one batch only.
    profileMemo_.clear();
    const bool reuse = results_ && req.store.reuseStoredResults;
    api::AnalysisResponse resp = api::makeResponseShell(req);
    for (const api::KernelJob &job : req.kernels) {
        for (const arch::GpuSpec &spec : req.specs) {
            driver::BatchResult cell;
            cell.kernelName = job.name;
            cell.specName = spec.name;
            try {
                std::unique_ptr<driver::PreparedLaunch> launch;
                funcsim::ProfileKey key;
                funcsim::RunOptions opts;
                {
                    ScopedSpan span(tracer_, "api.materialize");
                    const driver::KernelCase kc = api::materializeJob(job);
                    cell.kernelName = kc.name;
                    launch = std::make_unique<driver::PreparedLaunch>(
                        kc.make());
                    opts = launch->options;
                    opts.collectTrace = true;
                    key = funcsim::makeProfileKey(launch->kernel,
                                                  launch->cfg, opts, spec,
                                                  *launch->gmem);
                }
                const arch::TimingFingerprint tfp =
                    arch::TimingFingerprint::of(spec);
                const std::string pkey = key.str();
                const std::string tkey =
                    gpuperf::store::TimingStore::keyFor(key, tfp);
                const std::string rkey =
                    std::to_string(cell.kernelName.size()) + ":" +
                    cell.kernelName + "|" + pkey + "|" + spec.fingerprint() +
                    "|" + req.sweep.fingerprint();

                if (reuse) {
                    expectLookup(&expected_.results, &storedResults_, rkey);
                    std::unique_ptr<driver::BatchResult> stored;
                    {
                        ScopedSpan span(tracer_, "store.read");
                        stored = results_->load(rkey);
                    }
                    if (stored) {
                        stored->kernelName = cell.kernelName;
                        stored->specName = cell.specName;
                        counts_.modelErrors.push_back(
                            std::fabs(stored->analysis.errorFraction()));
                        resp.cells.push_back(std::move(*stored));
                        continue;
                    }
                } else if (results_) {
                    ++expected_.results.writes;
                }

                std::shared_ptr<const funcsim::KernelProfile> profile;
                if (auto it = profileMemo_.find(pkey);
                    it != profileMemo_.end()) {
                    profile = it->second;
                } else {
                    if (profiles_) {
                        expectLookup(&expected_.profiles, &storedProfiles_,
                                     pkey);
                        ScopedSpan span(tracer_, "store.read");
                        profile = profiles_->load(key);
                    }
                    if (!profile) {
                        {
                            ScopedSpan span(tracer_, "funcsim.profile");
                            funcsim::FunctionalSimulator sim(spec);
                            profile = std::make_shared<
                                const funcsim::KernelProfile>(
                                funcsim::profileKernel(sim, launch->kernel,
                                                       launch->cfg,
                                                       *launch->gmem, opts,
                                                       key));
                        }
                        ++counts_.funcsimRuns;
                        counts_.warpInstrs +=
                            profile->stats.totalWarpInstrs();
                        if (profiles_) {
                            ScopedSpan span(tracer_, "store.write");
                            profiles_->save(*profile);
                        }
                    }
                    profileMemo_[pkey] = profile;
                }

                std::shared_ptr<const timing::TimingResult> replay;
                if (auto it = timingMemo_.find(tkey);
                    it != timingMemo_.end()) {
                    replay = it->second;
                } else {
                    if (timings_) {
                        expectLookup(&expected_.timings, &storedTimings_,
                                     tkey);
                        ScopedSpan span(tracer_, "store.read");
                        replay = timings_->load(key, tfp);
                    }
                    if (!replay) {
                        {
                            ScopedSpan span(tracer_, "timing.replay");
                            timing::TimingSimulator sim(spec,
                                                        req.exec.engine);
                            replay = std::make_shared<
                                const timing::TimingResult>(
                                sim.run(*profile));
                        }
                        ++counts_.replays;
                        counts_.warpOps += replay->totalOps;
                        if (timings_) {
                            ScopedSpan span(tracer_, "store.write");
                            timings_->save(key, tfp, *replay);
                        }
                    }
                    timingMemo_[tkey] = replay;
                }

                SpecState &st = specState(spec, req.exec.engine);
                model::Analysis a;
                model::Measurement m =
                    st.session->device().measure(*profile, *replay);
                const model::InfoExtractor extractor(spec);
                {
                    ScopedSpan span(tracer_, "model.extract");
                    a.input = extractor.extract(m.stats, profile->resources);
                }
                {
                    ScopedSpan span(tracer_, "model.predict");
                    a.prediction = st.session->model().predict(a.input);
                }
                a.metrics = model::computeMetrics(m.stats);
                a.measurement = std::move(m);
                cell.analysis = std::move(a);
                if (!req.sweep.empty()) {
                    ScopedSpan span(tracer_, "driver.sweep");
                    cell.whatifs = driver::runSweep(
                        st.session->model(), cell.analysis.input, req.sweep,
                        cell.analysis.prediction);
                }
                cell.ok = true;
                counts_.modelErrors.push_back(
                    std::fabs(cell.analysis.errorFraction()));
                if (results_) {
                    ScopedSpan span(tracer_, "store.write");
                    results_->save(rkey, cell);
                }
            } catch (const std::exception &e) {
                cell.ok = false;
                cell.error = e.what();
            }
            resp.cells.push_back(std::move(cell));
        }
    }
    return resp;
}

// --- api-layer probes -----------------------------------------------------

CodecRates
measureCodecs(Tracer &tracer, const std::vector<api::AnalysisRequest> &reqs,
              const std::vector<api::AnalysisResponse> &resps)
{
    CodecRates rates;
    double bin_bytes = 0.0, json_bytes = 0.0;
    double enc_s = 0.0, dec_s = 0.0, jenc_s = 0.0, jdec_s = 0.0;
    const auto time_span = [&tracer](const char *name, double *acc,
                                     const auto &body) {
        ScopedSpan span(tracer, name);
        const auto t0 = Clock::now();
        body();
        *acc += secondsSince(t0);
    };
    // Decodes land in fresh objects: *from_bin and *from_json.
    const auto codec = [&](const auto &msg, auto write, auto read,
                           auto to_json, auto from_json, auto *from_bin,
                           auto *from_text) {
        gpuperf::store::ByteWriter w;
        time_span("api.encode", &enc_s, [&] { write(w, msg); });
        bin_bytes += static_cast<double>(w.bytes().size());
        time_span("api.decode", &dec_s, [&] {
            gpuperf::store::ByteReader r(w.bytes());
            if (!read(r, from_bin))
                rates.roundTripOk = false;
        });
        std::string text;
        time_span("api.json_encode", &jenc_s, [&] { text = to_json(msg); });
        json_bytes += static_cast<double>(text.size());
        time_span("api.json_decode", &jdec_s, [&] {
            std::string err;
            if (!from_json(text, from_text, &err))
                rates.roundTripOk = false;
        });
    };
    for (const api::AnalysisRequest &req : reqs) {
        api::AnalysisRequest from_bin, from_text;
        codec(
            req,
            [](gpuperf::store::ByteWriter &w, const api::AnalysisRequest &m) {
                api::writeRequest(w, m);
            },
            [](gpuperf::store::ByteReader &r, api::AnalysisRequest *m) {
                return api::readRequest(r, m);
            },
            [](const api::AnalysisRequest &m) { return api::requestToJson(m); },
            [](const std::string &t, api::AnalysisRequest *m,
               std::string *e) { return api::requestFromJson(t, m, e); },
            &from_bin, &from_text);
    }
    for (const api::AnalysisResponse &resp : resps) {
        api::AnalysisResponse from_bin, from_text;
        codec(
            resp,
            [](gpuperf::store::ByteWriter &w, const api::AnalysisResponse &m) {
                api::writeResponse(w, m);
            },
            [](gpuperf::store::ByteReader &r, api::AnalysisResponse *m) {
                return api::readResponse(r, m);
            },
            [](const api::AnalysisResponse &m) {
                return api::responseToJson(m);
            },
            [](const std::string &t, api::AnalysisResponse *m,
               std::string *e) { return api::responseFromJson(t, m, e); },
            &from_bin, &from_text);
        if (!api::responsesEqual(from_bin, resp) ||
            !api::responsesEqual(from_text, resp))
            rates.roundTripOk = false;
    }
    const auto mbps = [](double bytes, double s) {
        return s > 0.0 ? bytes / s / 1e6 : 0.0;
    };
    rates.encodeMBps = mbps(bin_bytes, enc_s);
    rates.decodeMBps = mbps(bin_bytes, dec_s);
    rates.jsonEncodeMBps = mbps(json_bytes, jenc_s);
    rates.jsonDecodeMBps = mbps(json_bytes, jdec_s);
    return rates;
}

namespace {

/** A connected (client, server) socket pair; -1s on failure. */
std::pair<int, int>
connectedPair(bool tcp)
{
    if (!tcp) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            return {-1, -1};
        return {fds[0], fds[1]};
    }
    std::string err;
    const int listener = gpuperf::listenTcp("127.0.0.1", 0, &err);
    if (listener < 0)
        return {-1, -1};
    const int client = gpuperf::connectTcp(
        "127.0.0.1", gpuperf::boundTcpPort(listener), &err);
    int server = -1;
    if (client >= 0 && gpuperf::waitReadable(listener, 5.0))
        server = gpuperf::acceptClient(listener);
    gpuperf::closeSocket(listener);
    if (server < 0) {
        if (client >= 0)
            gpuperf::closeSocket(client);
        return {-1, -1};
    }
    return {client, server};
}

} // namespace

double
frameRoundTripUs(Tracer &tracer, bool tcp,
                 const std::string &request_payload,
                 const std::string &response_payload, int rounds)
{
    const auto [client, server] = connectedPair(tcp);
    if (client < 0)
        return -1.0;
    // The echo side answers each request frame with the response
    // payload, as the server does for one exchange.
    std::thread echo([server = server, &response_payload, rounds] {
        api::FrameType type;
        std::string payload;
        for (int i = 0; i < rounds; ++i) {
            if (api::readFrame(server, &type, &payload) != 1 ||
                !api::writeFrame(server, api::FrameType::kDone,
                                 response_payload))
                break;
        }
    });
    std::vector<double> us;
    const char *name = tcp ? "api.frame_rtt_tcp" : "api.frame_rtt_unix";
    bool ok = true;
    for (int i = 0; i < rounds && ok; ++i) {
        ScopedSpan span(tracer, name);
        const auto t0 = Clock::now();
        api::FrameType type;
        std::string payload;
        ok = api::writeFrame(client, api::FrameType::kRequest,
                             request_payload) &&
             api::readFrame(client, &type, &payload) == 1 &&
             payload.size() == response_payload.size();
        us.push_back(secondsSince(t0) * 1e6);
    }
    gpuperf::closeSocket(client);
    echo.join();
    gpuperf::closeSocket(server);
    return ok ? median(us) : -1.0;
}

double
modelErrPct(const std::vector<double> &errors)
{
    return median(errors) * 100.0;
}

} // namespace perfbench
