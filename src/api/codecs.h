/**
 * @file
 * Versioned codecs for the AnalysisService request/response schema —
 * what makes a job a wire-portable artifact.
 *
 * Two formats, both complete and lossless, generated from ONE field
 * list per type (store/fields.h explains the visitors; the lists of
 * the request types are here and in codecs.cc, those of the response
 * payload in store/codecs.h and store/result_store.h):
 *
 *  - BINARY (store/serializer primitives): the compact machine
 *    format the socket frames and the fleet's cell jobs carry between
 *    processes.
 *  - JSON (api/json.h): the human- and tool-facing format. Finite
 *    doubles are emitted with %.17g (exact round trip); non-finite
 *    doubles as the strings "nan"/"inf"/"-inf"; 64-bit integers that
 *    may exceed 2^53 as decimal strings; raw memory images as hex.
 *    Field order is the field-list order, so two equal responses dump
 *    to byte-identical text (the CI serve and fleet smokes diff on this).
 *
 * Every reader returns false (with a message where the signature
 * allows) on malformed input; a bad job fails, it never crashes the
 * service.
 */

#ifndef GPUPERF_API_CODECS_H
#define GPUPERF_API_CODECS_H

#include <string>

#include "api/request.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

// --- Binary ----------------------------------------------------------

void writeRequest(store::ByteWriter &w, const AnalysisRequest &req);
bool readRequest(store::ByteReader &r, AnalysisRequest *req);

void writeResponse(store::ByteWriter &w, const AnalysisResponse &resp);
bool readResponse(store::ByteReader &r, AnalysisResponse *resp);

// --- JSON ------------------------------------------------------------

std::string requestToJson(const AnalysisRequest &req);
bool requestFromJson(const std::string &text, AnalysisRequest *req,
                     std::string *error);

std::string responseToJson(const AnalysisResponse &resp);
bool responseFromJson(const std::string &text, AnalysisResponse *resp,
                      std::string *error);

// --- Equality (tests, smoke diffs) ----------------------------------

/**
 * Bit identity of every field of two responses: doubles compare by
 * bit pattern, so a NaN equals the same NaN and -0.0 differs from
 * +0.0. What "pinned bit-identical" means, in one reusable place.
 * @p whyNot receives the path of the first differing field, e.g.
 * "cells[2].analysis.prediction.totalSeconds differs".
 */
bool responsesEqual(const AnalysisResponse &a, const AnalysisResponse &b,
                    std::string *whyNot = nullptr);

} // namespace api

namespace schema {

/**
 * Every GpuSpec field, in declaration order. A spec field missing
 * here would alias cached jobs across specs;
 * GpuSpecFields.EveryFieldReachesFingerprintAndBothCodecs
 * (tests/test_codecs.cc) walks this list to check that each field
 * also reaches GpuSpec::fingerprint().
 */
template <class V>
void
fields(V &v, arch::GpuSpec &x)
{
    v("name", x.name);
    v("numSms", x.numSms);
    v("smsPerCluster", x.smsPerCluster);
    v("spsPerSm", x.spsPerSm);
    v("sfuMulPerSm", x.sfuMulPerSm);
    v("sfuPerSm", x.sfuPerSm);
    v("dpPerSm", x.dpPerSm);
    v("warpSize", x.warpSize);
    v("coreClockHz", x.coreClockHz);
    v("registersPerSm", x.registersPerSm);
    v("sharedMemPerSm", x.sharedMemPerSm);
    v("maxThreadsPerSm", x.maxThreadsPerSm);
    v("maxThreadsPerBlock", x.maxThreadsPerBlock);
    v("maxBlocksPerSm", x.maxBlocksPerSm);
    v("maxWarpsPerSm", x.maxWarpsPerSm);
    v("registerAllocUnit", x.registerAllocUnit);
    v("sharedAllocUnit", x.sharedAllocUnit);
    v("sharedStaticPerBlock", x.sharedStaticPerBlock);
    v("numSharedBanks", x.numSharedBanks);
    v("sharedBankWidth", x.sharedBankWidth);
    v("sharedIssueGroup", x.sharedIssueGroup);
    v("memClockHz", x.memClockHz);
    v("busWidthBits", x.busWidthBits);
    v("coalesceGroup", x.coalesceGroup);
    v("minSegmentBytes", x.minSegmentBytes);
    v("maxSegmentBytes", x.maxSegmentBytes);
    v("aluDepCycles", x.aluDepCycles);
    v("sharedDepCycles", x.sharedDepCycles);
    v("warpSharedPassIntervalCycles", x.warpSharedPassIntervalCycles);
    v("globalLatencyCycles", x.globalLatencyCycles);
    v("transactionOverheadCycles", x.transactionOverheadCycles);
    v("issueOverheadCycles", x.issueOverheadCycles);
    v("textureCacheEnabled", x.textureCacheEnabled);
    v("textureCacheBytesPerCluster", x.textureCacheBytesPerCluster);
    v("textureCacheLineBytes", x.textureCacheLineBytes);
    v("textureCacheWays", x.textureCacheWays);
    v("textureHitLatencyCycles", x.textureHitLatencyCycles);
}

} // namespace schema
} // namespace gpuperf

#endif // GPUPERF_API_CODECS_H
