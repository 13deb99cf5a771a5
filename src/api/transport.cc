#include "api/transport.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "api/client.h"
#include "api/endpoint.h"
#include "common/socket.h"

namespace gpuperf {
namespace api {

namespace {

/** Little-endian u32, independent of host order. */
void
putU32(char *out, uint32_t v)
{
    out[0] = static_cast<char>(v & 0xff);
    out[1] = static_cast<char>((v >> 8) & 0xff);
    out[2] = static_cast<char>((v >> 16) & 0xff);
    out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t
getU32(const unsigned char *in)
{
    return static_cast<uint32_t>(in[0]) |
           (static_cast<uint32_t>(in[1]) << 8) |
           (static_cast<uint32_t>(in[2]) << 16) |
           (static_cast<uint32_t>(in[3]) << 24);
}

constexpr size_t kFrameHeaderBytes = 4 + 1 + 4;

} // namespace

bool
writeFrame(int fd, FrameType type, const std::string &payload)
{
    if (payload.size() > UINT32_MAX)
        return false;
    char header[kFrameHeaderBytes];
    putU32(header, kFrameMagic);
    header[4] = static_cast<char>(type);
    putU32(header + 5, static_cast<uint32_t>(payload.size()));
    // One header write + one payload write: the payload can be large
    // (inline memory images) and is already contiguous — no copy into
    // a combined buffer.
    return sendAll(fd, header, sizeof(header)) &&
           sendAll(fd, payload.data(), payload.size());
}

int
readFrame(int fd, FrameType *type, std::string *payload,
          uint64_t max_payload_bytes, const std::atomic<bool> *cancel,
          std::string *err, double idle_timeout_seconds)
{
    // Phase 1: wait for the frame to START under the caller's idle
    // policy. No bytes have arrived yet, so the stream stays
    // synchronized across this wait and expiry is reported distinctly
    // (-2), never as a torn frame.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point wait_start = Clock::now();
    for (;;) {
        if (cancel && cancel->load(std::memory_order_relaxed)) {
            if (err)
                *err = "cancelled while awaiting a frame";
            return -1;
        }
        if (waitReadable(fd, 0.2))
            break;
        const std::chrono::duration<double> waited =
            Clock::now() - wait_start;
        if (idle_timeout_seconds >= 0 &&
            waited.count() > idle_timeout_seconds)
            return -2;
    }

    // Phase 2: the peer has started talking (or hung up); from here a
    // stall means a broken peer and the short protocol bound applies.
    unsigned char header[kFrameHeaderBytes];
    const int rc = recvFully(fd, header, sizeof(header),
                             kFrameStallTimeoutSeconds, cancel);
    if (rc <= 0) {
        if (rc < 0 && err)
            *err = "torn or cancelled frame header";
        return rc;
    }
    if (getU32(header) != kFrameMagic) {
        if (err)
            *err = "bad frame magic (not a gpuperf peer?)";
        return -1;
    }
    const uint8_t raw_type = header[4];
    if (raw_type < static_cast<uint8_t>(FrameType::kRequest) ||
        raw_type > static_cast<uint8_t>(FrameType::kJob)) {
        if (err)
            *err = "unknown frame type " + std::to_string(raw_type);
        return -1;
    }
    const uint32_t length = getU32(header + 5);
    if (length > max_payload_bytes) {
        // Refuse BEFORE allocating: the length word is
        // attacker-controlled input.
        if (err)
            *err = "frame of " + std::to_string(length) +
                   " bytes exceeds the " +
                   std::to_string(max_payload_bytes) + "-byte bound";
        return -1;
    }
    payload->resize(length);
    if (length > 0 &&
        recvFully(fd, &(*payload)[0], length,
                  kFrameStallTimeoutSeconds, cancel) != 1) {
        if (err)
            *err = "torn or cancelled frame payload";
        return -1;
    }
    *type = static_cast<FrameType>(raw_type);
    return 1;
}

namespace {

/** The zero-distance backend: a local AnalysisService. */
class InProcessTransport : public Transport
{
  public:
    explicit InProcessTransport(AnalysisService *borrowed)
        : borrowed_(borrowed)
    {
        if (!borrowed_)
            owned_ = std::make_unique<AnalysisService>();
    }

    AnalysisResponse run(const AnalysisRequest &req,
                         const CellCallback &onCell) override
    {
        return service().execute(req, onCell);
    }

    std::string describe() const override { return "inproc:"; }

  private:
    AnalysisService &service()
    {
        return borrowed_ ? *borrowed_ : *owned_;
    }

    AnalysisService *borrowed_;
    std::unique_ptr<AnalysisService> owned_;
};

/**
 * Decorator stamping the endpoint's `?client=` identity onto every
 * request whose own clientId is empty — how one process impersonates
 * one tenant of a shared daemon without touching request-building
 * code. An explicit request-level clientId wins.
 */
class ClientTagTransport : public Transport
{
  public:
    ClientTagTransport(std::unique_ptr<Transport> inner,
                       std::string client)
        : inner_(std::move(inner)), client_(std::move(client))
    {
    }

    AnalysisResponse run(const AnalysisRequest &req,
                         const CellCallback &onCell) override
    {
        if (req.clientId.empty()) {
            AnalysisRequest tagged = req;
            tagged.clientId = client_;
            return inner_->run(tagged, onCell);
        }
        return inner_->run(req, onCell);
    }

    std::string describe() const override
    {
        return inner_->describe();
    }

  private:
    std::unique_ptr<Transport> inner_;
    std::string client_;
};

} // namespace

std::unique_ptr<Transport>
makeTransport(const Endpoint &ep, AnalysisService *local)
{
    std::unique_ptr<Transport> transport;
    switch (ep.scheme) {
    case Endpoint::Scheme::kInproc:
        transport = std::make_unique<InProcessTransport>(local);
        break;
    case Endpoint::Scheme::kUnix:
    case Endpoint::Scheme::kTcp: {
        auto client = std::make_unique<ServeClient>(
            ep.scheme == Endpoint::Scheme::kUnix
                ? ServeClient::overUnix(ep.path)
                : ServeClient::overTcp(ep.host, ep.port));
        client->setJsonRequests(ep.jsonRequests);
        client->setMaxFrameBytes(ep.limits.maxFrameBytes);
        client->setResponseTimeout(ep.timeouts.responseSeconds);
        transport = std::move(client);
        break;
    }
    }
    if (!transport)
        throw std::runtime_error("unhandled endpoint scheme");
    if (!ep.clientId.empty())
        return std::make_unique<ClientTagTransport>(
            std::move(transport), ep.clientId);
    return transport;
}

std::unique_ptr<Transport>
makeTransport(const std::string &uri, AnalysisService *local)
{
    // Parsing through Endpoint is what makes ?key=value options work
    // uniformly on every URI the tools and tests pass around.
    return makeTransport(Endpoint::parse(uri), local);
}

} // namespace api
} // namespace gpuperf
