/**
 * @file
 * The socket transport: gpuperf-serve's Server multiplexes many
 * concurrent framed clients onto one AnalysisService with responses
 * bit-identical to in-process execution, admission control rejects
 * over-quota requests visibly, and every transport failure mode —
 * client disconnect mid-request, half-written frames, oversized
 * frames, shutdown with in-flight cells — is contained: cells are
 * delivered or failed, never dropped, and the daemon never crashes.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codecs.h"
#include "api/endpoint.h"
#include "api/server.h"
#include "api/service.h"
#include "api/transport.h"
#include "common/socket.h"
#include "store/serializer.h"

#include "poison_requests.h"

namespace gpuperf {
namespace api {
namespace {

std::string
freshSocketPath(const std::string &tag)
{
    static int counter = 0;
    // Keep it short: sun_path caps out around 100 bytes.
    return "/tmp/gpuperf-serve-" + tag + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(counter++) + ".sock";
}

model::CalibrationTables
fakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    static const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    return tables;
}

/** 3 kernels x 2 specs, no store — fake calibration keeps it fast. */
AnalysisRequest
testRequest()
{
    AnalysisRequest req;
    req.jobName = "serve-test";
    req.kernels.push_back(KernelJob::fromRef(
        "saxpy-small", CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(KernelJob::fromRef(
        "conflicted", CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "hist", CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0, 32.0};
    req.sweep.coalescingFractions = {1.0};
    req.exec.numThreads = 2;
    return req;
}

void
adoptAll(AnalysisService &service, const AnalysisRequest &req)
{
    for (const arch::GpuSpec &spec : req.specs)
        service.adoptCalibration(req, spec, sharedFakeTables());
}

void
expectEqual(const AnalysisResponse &got, const AnalysisResponse &want)
{
    std::string why;
    EXPECT_TRUE(responsesEqual(got, want, &why)) << why;
}

/** A started server plus the in-process reference it must match. */
struct Rig
{
    std::string unixPath;
    std::unique_ptr<Server> server;
    AnalysisService reference;
    AnalysisRequest req = testRequest();

    explicit Rig(const std::string &tag, bool tcp = false)
    {
        unixPath = freshSocketPath(tag);
        std::vector<Endpoint> endpoints = {Endpoint::parse(
            "unix:" + unixPath, Endpoint::Role::kServer)};
        if (tcp) // ephemeral port
            endpoints.push_back(Endpoint::parse(
                "tcp:127.0.0.1:0", Endpoint::Role::kServer));
        server = std::make_unique<Server>(endpoints);
        server->start();
        adoptAll(server->service(), req);
        adoptAll(reference, req);
    }

    AnalysisResponse expected() { return reference.run(req); }
};

// --- Bit-identity across transports -----------------------------------

TEST(ServeTest, UnixAndTcpAreBitIdenticalToInProcess)
{
    Rig rig("bitident", /*tcp=*/true);
    const AnalysisResponse want = rig.expected();

    ServeClient over_unix = ServeClient::overUnix(rig.unixPath);
    expectEqual(over_unix.run(rig.req), want);

    ASSERT_GT(rig.server->tcpPort(), 0);
    ServeClient over_tcp =
        ServeClient::overTcp("127.0.0.1", rig.server->tcpPort());
    expectEqual(over_tcp.run(rig.req), want);

    // Repeated requests reuse the connection (and the server's warm
    // executor cache).
    expectEqual(over_unix.run(rig.req), want);

    const ServerStats stats = rig.server->stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.cells, 3u * want.cells.size());
    EXPECT_EQ(stats.rejectedRequests, 0u);
}

TEST(ServeTest, JsonRequestsServeIdentically)
{
    Rig rig("json");
    const AnalysisResponse want = rig.expected();
    ServeClient client = ServeClient::overUnix(rig.unixPath);
    client.setJsonRequests(true);
    expectEqual(client.run(rig.req), want);
}

TEST(ServeTest, MakeTransportReachesAServer)
{
    Rig rig("uri");
    const auto transport =
        makeTransport("unix:" + rig.unixPath);
    EXPECT_EQ(transport->describe(), "unix:" + rig.unixPath);
    expectEqual(transport->run(rig.req), rig.expected());

    EXPECT_THROW(makeTransport("carrier-pigeon:coop"),
                 std::runtime_error);
    EXPECT_THROW(makeTransport("tcp:127.0.0.1"), std::runtime_error);
    EXPECT_THROW(makeTransport("tcp:127.0.0.1:notaport"),
                 std::runtime_error);
    EXPECT_THROW(makeTransport("spool:"), std::runtime_error);
    try {
        Endpoint::parse("spool:/x");
        FAIL() << "spool: must not parse";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "inproc:, unix:PATH or tcp:HOST:PORT"),
                  std::string::npos)
            << e.what();
    }
}

// --- Concurrency ------------------------------------------------------

TEST(ServeTest, ConcurrentClientsStreamEveryCellOnce)
{
    Rig rig("concurrent", /*tcp=*/true);
    AnalysisRequest req = rig.req;
    req.exec.delivery = ExecutionPolicy::Delivery::kStream;
    const AnalysisResponse want = rig.expected();

    constexpr int kClients = 6;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                // Alternate transports so both listeners see load.
                ServeClient client =
                    (c % 2 == 0)
                        ? ServeClient::overUnix(rig.unixPath)
                        : ServeClient::overTcp(
                              "127.0.0.1", rig.server->tcpPort());
                std::vector<int> delivered(want.cells.size(), 0);
                const AnalysisResponse got = client.run(
                    req, [&](size_t index,
                             const driver::BatchResult &cell) {
                        ASSERT_LT(index, delivered.size());
                        ++delivered[index];
                        EXPECT_EQ(cell.kernelName,
                                  want.cells[index].kernelName);
                    });
                std::string why;
                if (!responsesEqual(got, want, &why))
                    failures[c] = why;
                for (size_t i = 0; i < delivered.size(); ++i) {
                    if (delivered[i] != 1)
                        failures[c] = "cell " + std::to_string(i) +
                                      " delivered " +
                                      std::to_string(delivered[i]) +
                                      " times";
                }
            } catch (const std::exception &e) {
                failures[c] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_TRUE(failures[c].empty())
            << "client " << c << ": " << failures[c];

    const ServerStats stats = rig.server->stats();
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients));
    EXPECT_EQ(stats.cells, kClients * want.cells.size());
}

TEST(ServeTest, RequestLargerThanInFlightBoundStillAdmitsWhenIdle)
{
    // A lone request bigger than maxInFlightCells must execute, not
    // deadlock against the admission gate.
    const std::string path = freshSocketPath("bigreq");
    Server server(Endpoint::parse("unix:" + path + "?max-inflight=1",
                                  Endpoint::Role::kServer));
    server.start();
    const AnalysisRequest req = testRequest();
    adoptAll(server.service(), req);

    ServeClient client = ServeClient::overUnix(path);
    const AnalysisResponse got = client.run(req);
    EXPECT_EQ(got.cells.size(),
              req.kernels.size() * req.specs.size());
}

// --- Admission control ------------------------------------------------

TEST(ServeTest, QuotaRejectsOversizedRequestsButKeepsTheConnection)
{
    const std::string path = freshSocketPath("quota");
    Server server(Endpoint::parse("unix:" + path + "?max-cells=1",
                                  Endpoint::Role::kServer));
    server.start();
    AnalysisRequest req = testRequest();
    adoptAll(server.service(), req);

    ServeClient client = ServeClient::overUnix(path);
    EXPECT_THROW(
        {
            try {
                client.run(req);
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("quota"),
                          std::string::npos)
                    << e.what();
                throw;
            }
        },
        std::runtime_error);

    // The same connection then serves an in-quota request.
    req.kernels = {req.kernels[0]};
    req.specs = {req.specs[0]};
    const AnalysisResponse got = client.run(req);
    ASSERT_EQ(got.cells.size(), 1u);
    EXPECT_TRUE(got.cells[0].ok) << got.cells[0].error;
    EXPECT_EQ(server.stats().rejectedRequests, 1u);
}

TEST(ServeTest, MalformedRequestGetsErrorNotACrash)
{
    Rig rig("malformed");
    std::string err;
    const int fd = connectUnix(rig.unixPath, &err);
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(
        writeFrame(fd, FrameType::kRequest, "this is not a request"));
    FrameType type;
    std::string body;
    ASSERT_EQ(readFrame(fd, &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err),
              1)
        << err;
    EXPECT_EQ(type, FrameType::kError);
    EXPECT_NE(body.find("deserialize"), std::string::npos) << body;
    closeSocket(fd);
    EXPECT_EQ(rig.server->stats().rejectedRequests, 1u);
}

TEST(ServeTest, PoisonInputsFailTheirCellsAndTheServerSurvives)
{
    Rig rig("poison");
    const std::vector<poison::Case> cases = poison::cases(rig.req);
    // In-process first: the same requests, the same failed cells.
    for (const poison::Case &c : cases) {
        SCOPED_TRACE(c.what);
        const AnalysisResponse resp = rig.reference.run(c.req);
        ASSERT_EQ(resp.cells.size(), 1u);
        EXPECT_FALSE(resp.cells[0].ok);
        EXPECT_NE(resp.cells[0].error.find(c.message), std::string::npos)
            << resp.cells[0].error;
    }
    ServeClient client = ServeClient::overUnix(rig.unixPath);
    for (const poison::Case &c : cases) {
        SCOPED_TRACE(c.what);
        const AnalysisResponse resp = client.run(c.req);
        ASSERT_EQ(resp.cells.size(), 1u);
        EXPECT_FALSE(resp.cells[0].ok);
        EXPECT_NE(resp.cells[0].error.find(c.message), std::string::npos)
            << resp.cells[0].error;
    }
    // The daemon is still up and still bit-identical.
    expectEqual(client.run(rig.req), rig.expected());
    EXPECT_EQ(rig.server->stats().requests, cases.size() + 1);
}

// --- Transport failure containment ------------------------------------

TEST(ServeTest, OversizedFrameIsRefusedBeforeAllocation)
{
    const std::string path = freshSocketPath("oversize");
    Server server(Endpoint::parse(
        "unix:" + path + "?max-frame-bytes=1024",
        Endpoint::Role::kServer));
    server.start();

    std::string err;
    const int fd = connectUnix(path, &err);
    ASSERT_GE(fd, 0) << err;
    // A frame header promising far more than the bound: the server
    // must refuse it from the length word alone — the payload is
    // never sent, so accepting would hang or allocate unboundedly.
    ASSERT_TRUE(writeFrame(fd, FrameType::kRequest,
                           std::string(2048, 'x')));
    FrameType type;
    std::string body;
    ASSERT_EQ(readFrame(fd, &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err),
              1)
        << err;
    EXPECT_EQ(type, FrameType::kError);
    EXPECT_NE(body.find("exceeds"), std::string::npos) << body;
    closeSocket(fd);
}

TEST(ServeTest, HalfWrittenFramesAndGarbageAreContained)
{
    Rig rig("torn");

    // Half a header, then hangup.
    std::string err;
    int fd = connectUnix(rig.unixPath, &err);
    ASSERT_GE(fd, 0) << err;
    const char partial[2] = {'G', 'P'};
    ASSERT_TRUE(sendAll(fd, partial, sizeof(partial)));
    closeSocket(fd);

    // A full header promising a payload that never arrives.
    fd = connectUnix(rig.unixPath, &err);
    ASSERT_GE(fd, 0) << err;
    {
        store::ByteWriter w;
        w.u32(kFrameMagic);
        std::string header = w.bytes();
        header.push_back(static_cast<char>(FrameType::kRequest));
        store::ByteWriter len;
        len.u32(100);
        header += len.bytes();
        ASSERT_TRUE(sendAll(fd, header.data(), header.size()));
        ASSERT_TRUE(sendAll(fd, "abc", 3));
    }
    closeSocket(fd);

    // Garbage that is not a frame at all.
    fd = connectUnix(rig.unixPath, &err);
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(sendAll(fd, "GET / HTTP/1.1\r\n\r\n", 18));
    FrameType type;
    std::string body;
    EXPECT_EQ(readFrame(fd, &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err),
              1);
    EXPECT_EQ(type, FrameType::kError);
    EXPECT_NE(body.find("magic"), std::string::npos) << body;
    closeSocket(fd);

    // A response frame where a request belongs.
    fd = connectUnix(rig.unixPath, &err);
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(writeFrame(fd, FrameType::kDone, ""));
    EXPECT_EQ(readFrame(fd, &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err),
              1);
    EXPECT_EQ(type, FrameType::kError);
    closeSocket(fd);

    // After all that abuse the server still serves.
    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), rig.expected());
}

TEST(ServeTest, ReadFrameIdleTimeoutIsDistinctFromFailure)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameType type;
    std::string body;
    std::string err;
    // Nothing sent: the idle deadline expires as -2 — the stream is
    // still synchronized — not as a torn frame.
    EXPECT_EQ(readFrame(fds[0], &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err, /*idle_timeout_seconds=*/0.3),
              -2);
    // Cancellation beats the idle wait even with no deadline at all.
    std::atomic<bool> cancel{true};
    EXPECT_EQ(readFrame(fds[0], &type, &body, kMaxFrameBytesDefault,
                        &cancel, &err, /*idle_timeout_seconds=*/-1.0),
              -1);
    // A frame on the wire reads fine under an infinite idle deadline.
    ASSERT_TRUE(writeFrame(fds[1], FrameType::kDone, "payload"));
    EXPECT_EQ(readFrame(fds[0], &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err, /*idle_timeout_seconds=*/-1.0),
              1);
    EXPECT_EQ(type, FrameType::kDone);
    EXPECT_EQ(body, "payload");
    // Peer hangup is still a clean EOF, not an idle expiry.
    closeSocket(fds[1]);
    EXPECT_EQ(readFrame(fds[0], &type, &body, kMaxFrameBytesDefault,
                        nullptr, &err, /*idle_timeout_seconds=*/-1.0),
              0);
    closeSocket(fds[0]);
}

TEST(ServeTest, IdleConnectionsCloseCleanlyAndClientsReconnect)
{
    const std::string path = freshSocketPath("idle");
    Server server(Endpoint::parse(
        "unix:" + path + "?idle-timeout=0.3",
        Endpoint::Role::kServer));
    server.start();
    AnalysisRequest req = testRequest();
    req.kernels = {req.kernels[0]};
    req.specs = {req.specs[0]};
    adoptAll(server.service(), req);
    AnalysisService reference;
    adoptAll(reference, req);
    const AnalysisResponse want = reference.run(req);

    // A raw connection idle past the bound is closed CLEANLY: EOF,
    // no kError frame on the wire.
    std::string err;
    const int fd = connectUnix(path, &err);
    ASSERT_GE(fd, 0) << err;
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    closeSocket(fd);

    // A client whose cached connection the server closed as idle
    // retries transparently on a fresh connection.
    ServeClient client = ServeClient::overUnix(path);
    expectEqual(client.run(req), want);
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    expectEqual(client.run(req), want);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.disconnects, 0u); // idle closes are not failures
}

TEST(ServeTest, ThrowingCellCallbackDoesNotPoisonTheClient)
{
    Rig rig("cbthrow");
    AnalysisRequest streaming = rig.req;
    streaming.exec.delivery = ExecutionPolicy::Delivery::kStream;

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    EXPECT_THROW(
        client.run(streaming,
                   [](size_t, const driver::BatchResult &) {
                       throw std::runtime_error("caller bailed");
                   }),
        std::runtime_error);

    // The aborted exchange left kCell/kDone frames unread; the client
    // must not reuse that stream — the next request gets ITS OWN
    // response, never the previous exchange's leftover kDone.
    AnalysisRequest small = rig.req;
    small.kernels = {small.kernels[0]};
    small.specs = {small.specs[0]};
    const AnalysisResponse want = rig.reference.run(small);
    ASSERT_EQ(want.cells.size(), 1u);
    expectEqual(client.run(small), want);
}

TEST(ServeTest, ClientDisconnectMidRequestLeavesServerServing)
{
    Rig rig("hangup");

    // Send a full valid request, then vanish without reading the
    // response: the server executes, fails to deliver, and must shrug
    // it off (the disconnect counter is the only trace).
    std::string err;
    const int fd = connectUnix(rig.unixPath, &err);
    ASSERT_GE(fd, 0) << err;
    store::ByteWriter w;
    writeRequest(w, rig.req);
    ASSERT_TRUE(writeFrame(fd, FrameType::kRequest, w.bytes()));
    closeSocket(fd);

    // A well-behaved client still gets bit-identical service.
    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), rig.expected());

    // The abandoned request was executed and its failed delivery
    // recorded, never wedged: both requests count (the abandoned
    // one's kDone write fails AFTER execution) plus one disconnect.
    // Its bookkeeping lands on its own thread; poll briefly.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    ServerStats stats = rig.server->stats();
    while ((stats.requests < 2u || stats.disconnects < 1u) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stats = rig.server->stats();
    }
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_GE(stats.disconnects, 1u);
}

TEST(ServeTest, ShutdownDeliversInFlightCellsThenRefuses)
{
    Rig rig("shutdown");
    AnalysisRequest req = rig.req;
    req.exec.delivery = ExecutionPolicy::Delivery::kStream;
    const AnalysisResponse want = rig.expected();

    std::atomic<bool> first_cell{false};
    AnalysisResponse got;
    std::string failure;
    std::thread client_thread([&] {
        try {
            ServeClient client =
                ServeClient::overUnix(rig.unixPath);
            got = client.run(req,
                             [&](size_t, const driver::BatchResult &) {
                                 first_cell.store(true);
                             });
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Stop the server while the request is demonstrably in flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!first_cell.load() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(first_cell.load()) << failure;
    rig.server->stop();
    client_thread.join();

    // The admitted request drained: every cell was delivered.
    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want);

    // New connections are refused after stop (the listener is gone).
    std::string err;
    EXPECT_LT(connectUnix(rig.unixPath, &err), 0);
}

} // namespace
} // namespace api
} // namespace gpuperf
