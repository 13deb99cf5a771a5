#include "api/codecs.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "api/json.h"
#include "store/codecs.h"
#include "store/result_store.h"

namespace gpuperf {
namespace api {
namespace {

/** Most kernels, or specs, one request may list. */
constexpr uint64_t kMaxListed = uint64_t{1} << 20;
/** Most cells one response may carry. */
constexpr uint64_t kMaxCells = uint64_t{1} << 24;
/** Most instructions one inline kernel may carry. */
constexpr uint64_t kMaxInstructions = uint64_t{1} << 24;

std::string
schemaError(uint32_t version)
{
    return version == kSchemaVersion
               ? std::string()
               : "unsupported schema version " + std::to_string(version);
}

/**
 * Wire bounds for an inline launch's memory geometry: the image must
 * cover the never-allocated 256-byte head and fit the capacity (what
 * InlineLaunch::rebuildMemory() assumes), and the capacity is capped
 * so a forged job cannot make the worker zero-allocate terabytes.
 */
bool
memoryGeometryValid(uint64_t capacity, size_t image_bytes)
{
    constexpr uint64_t kMaxCapacity = uint64_t{1} << 32; // 4 GiB
    return capacity <= kMaxCapacity && image_bytes >= 256 &&
           image_bytes <= capacity;
}

} // namespace
} // namespace api

// =====================================================================
// Field lists of the request types (see store/fields.h)
// =====================================================================

namespace schema {

template <>
struct EnumTraits<isa::Opcode>
{
    static constexpr isa::Opcode kLast = static_cast<isa::Opcode>(
        static_cast<uint8_t>(isa::Opcode::kNumOpcodes) - 1);
    static constexpr const char *kWhat = "instruction opcode";
};

template <>
struct EnumTraits<isa::CmpOp>
{
    static constexpr isa::CmpOp kLast = isa::CmpOp::kNe;
    static constexpr const char *kWhat = "instruction cmp";
};

template <>
struct EnumTraits<isa::SpecialReg>
{
    static constexpr isa::SpecialReg kLast = isa::SpecialReg::kWarpId;
    static constexpr const char *kWhat = "instruction sreg";
};

template <>
struct EnumTraits<timing::ReplayEngine>
{
    static constexpr timing::ReplayEngine kLast =
        timing::ReplayEngine::kAuto;
    static constexpr const char *kWhat = "engine";
    static constexpr const char *kNames[] = {"event-driven",
                                             "legacy-scan", "auto"};
};

template <>
struct EnumTraits<api::ExecutionPolicy::Pipeline>
{
    static constexpr api::ExecutionPolicy::Pipeline kLast =
        api::ExecutionPolicy::Pipeline::kPerCell;
    static constexpr const char *kWhat = "pipeline";
    static constexpr const char *kNames[] = {"shared", "per-cell"};
};

template <>
struct EnumTraits<api::ExecutionPolicy::Delivery>
{
    static constexpr api::ExecutionPolicy::Delivery kLast =
        api::ExecutionPolicy::Delivery::kStream;
    static constexpr const char *kWhat = "delivery";
    static constexpr const char *kNames[] = {"collect", "stream"};
};

/** JSON carries an instruction as a flat tuple of these 11 values. */
template <class V>
void
fields(V &v, isa::Instruction &x)
{
    v("op", x.op);
    v("dst", x.dst);
    v("src0", x.src[0]);
    v("src1", x.src[1]);
    v("src2", x.src[2]);
    v("imm", x.imm);
    v("useImm", x.useImm);
    v("pred", x.pred);
    v("predNegate", x.predNegate);
    v("cmp", x.cmp);
    v("sreg", x.sreg);
}

/**
 * isa::Kernel's wire shape. The reader builds the Kernel itself, so
 * the constructor's structural rules decide: their SimError becomes
 * the read's check message, never an exception out of the decoder.
 */
template <class V>
void
fields(V &v, isa::Kernel &k)
{
    std::string read_name;
    std::vector<isa::Instruction> read_instrs;
    std::string &name =
        V::kReads ? read_name : const_cast<std::string &>(k.name());
    std::vector<isa::Instruction> &instrs =
        V::kReads ? read_instrs
                  : const_cast<std::vector<isa::Instruction> &>(
                        k.instructions());
    int32_t regs = k.numRegisters();
    int32_t preds = k.numPredicates();
    int32_t shared = k.sharedBytes();
    v("name", name);
    v("registers", regs);
    v("predicates", preds);
    v("sharedBytes", shared);
    v("instructions", instrs, api::kMaxInstructions);
    if constexpr (V::kReads) {
        v.check([&]() -> std::string {
            try {
                k = isa::Kernel(std::move(name), std::move(instrs), regs,
                                preds, shared);
            } catch (const SimError &e) {
                return e.what();
            }
            return "";
        });
    }
}

template <class V>
void
fields(V &v, api::CaseRef &x)
{
    v("factory", x.factory);
    v("iargs", x.iargs);
    v("fargs", x.fargs);
}

template <class V>
void
fields(V &v, funcsim::RunOptions &x)
{
    v("collectTrace", x.collectTrace);
    v("homogeneous", x.homogeneous);
    v("sampleBlocks", x.sampleBlocks);
    v("maxWarpOps", x.maxWarpOps);
}

template <class V>
void
fields(V &v, api::InlineLaunch &x)
{
    v("kernel", x.kernel);
    v.splice(x.cfg);
    v("options", x.options);
    v.group("memory", [&] {
        v("capacity", x.memoryCapacity);
        v.hex("image", x.memoryImage);
    });
    v.check([&] {
        return api::memoryGeometryValid(x.memoryCapacity,
                                        x.memoryImage.size())
                   ? ""
                   : "memory geometry out of range";
    });
}

/** The case-or-inline union: a u8 tag in binary, the key in JSON. */
template <class V>
void
fields(V &v, api::KernelJob &x)
{
    v("name", x.name);
    bool inlined = x.isInline();
    v.choice("inline", inlined);
    if (!inlined) {
        v("case", x.ref);
    } else if constexpr (V::kReads) {
        api::InlineLaunch launch{isa::Kernel("", {}, 1, 0, 0), {}, {}, 0,
                                 {}};
        v("inline", launch);
        if (v.ok())
            x.inlined =
                std::make_shared<const api::InlineLaunch>(std::move(launch));
    } else {
        v("inline", const_cast<api::InlineLaunch &>(*x.inlined));
    }
}

template <class V>
void
fields(V &v, driver::SweepSpec &x)
{
    v("noBankConflicts", x.noBankConflicts);
    v("warpsPerSm", x.warpsPerSm);
    v("coalescingFractions", x.coalescingFractions);
}

template <class V>
void
fields(V &v, api::StorePolicy &x)
{
    v("dir", x.storeDir);
    v("reuseStoredResults", x.reuseStoredResults);
}

template <class V>
void
fields(V &v, api::ExecutionPolicy &x)
{
    v("numThreads", x.numThreads);
    v("engine", x.engine);
    v("pipeline", x.pipeline);
    v("delivery", x.delivery);
}

template <class V>
void
fields(V &v, api::AnalysisRequest &x)
{
    v("schema", x.schemaVersion);
    v.check([&] { return api::schemaError(x.schemaVersion); });
    v("job", x.jobName);
    // Optional for hand-authored JSON; the writers always emit it.
    v.optional("client", x.clientId);
    v("kernels", x.kernels, api::kMaxListed);
    v("specs", x.specs, api::kMaxListed);
    v("sweep", x.sweep);
    v("store", x.store);
    v("exec", x.exec);
}

template <class V>
void
fields(V &v, api::AnalysisResponse &x)
{
    v("schema", x.schemaVersion);
    v.check([&] { return api::schemaError(x.schemaVersion); });
    v("job", x.jobName);
    v("numKernels", x.numKernels);
    v("numSpecs", x.numSpecs);
    v("cells", x.cells, api::kMaxCells);
}

} // namespace schema

namespace api {
namespace {

using schema::EnumTraits;
using schema::HasNames;
using schema::IsArray;
using schema::IsMap;
using schema::IsVector;
using schema::kUncapped;
using schema::StatusSlot;
using store::ByteReader;
using store::ByteWriter;

/** Types JSON carries as a flat tuple, by arity; 0 = an object. */
template <class T>
constexpr size_t kTupleArity = 0;
template <>
constexpr size_t kTupleArity<isa::Instruction> = 11;

// =====================================================================
// JSON
// =====================================================================

/** Builds the Json tree of a value from its field list. */
class JsonWriter : public schema::Visitor<JsonWriter>
{
  public:
    static constexpr bool kReads = false;

    JsonWriter() : Visitor(StatusSlot::kAfterNames) {}

    template <class T>
    void operator()(const char *key, T &x, uint64_t = kUncapped)
    {
        if (tuple_)
            cur_->push(value(x));
        else
            cur_->set(key, value(x));
    }
    template <class F>
    void group(const char *key, F &&f)
    {
        Json obj = Json::object();
        Json *outer = std::exchange(cur_, &obj);
        f();
        cur_ = outer;
        put(key, std::move(obj));
    }
    void hex(const char *key, std::string &bytes)
    {
        put(key, Json::str(hexEncode(bytes)));
    }
    void choice(const char *, bool &) {}

    template <class T>
    Json value(const T &x)
    {
        if constexpr (std::is_enum_v<T> && HasNames<T>::value) {
            const auto i = static_cast<size_t>(x);
            const auto last = static_cast<size_t>(EnumTraits<T>::kLast);
            return Json::str(EnumTraits<T>::kNames[i <= last ? i : 0]);
        } else if constexpr (std::is_same_v<T, bool>) {
            return tuple_ ? Json::number(x ? 1 : 0) : Json::boolean(x);
        } else if constexpr (std::is_same_v<T, double>) {
            // Non-finite doubles as tagged strings.
            if (std::isfinite(x))
                return Json::number(x);
            if (std::isnan(x))
                return Json::str("nan");
            return Json::str(x > 0 ? "inf" : "-inf");
        } else if constexpr (std::is_same_v<T, uint64_t>) {
            // Decimal strings: beyond 2^53 every digit matters.
            return Json::str(std::to_string(x));
        } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
            return Json::number(static_cast<double>(x));
        } else if constexpr (std::is_same_v<T, std::string>) {
            return Json::str(x);
        } else if constexpr (IsMap<T>::value) {
            Json list = Json::array();
            for (const auto &[k, v] : x) {
                Json pair = Json::array();
                pair.push(value(k));
                pair.push(value(v));
                list.push(std::move(pair));
            }
            return list;
        } else if constexpr (IsVector<T>::value || IsArray<T>::value) {
            Json list = Json::array();
            for (const auto &e : x)
                list.push(value(e));
            return list;
        } else {
            Json obj = kTupleArity<T> ? Json::array() : Json::object();
            Json *outer = std::exchange(cur_, &obj);
            const bool outer_tuple =
                std::exchange(tuple_, kTupleArity<T> > 0);
            fields(*this, const_cast<T &>(x));
            cur_ = outer;
            tuple_ = outer_tuple;
            return obj;
        }
    }

  private:
    void put(const char *key, Json v)
    {
        if (tuple_)
            cur_->push(std::move(v));
        else
            cur_->set(key, std::move(v));
    }

    Json *cur_ = nullptr;
    bool tuple_ = false;
};

/** Strict u64: a number below 2^64, or a string of decimal digits. */
bool
u64Value(const Json &v, uint64_t *out)
{
    if (v.isNumber()) {
        // 2^64 as a double; values at or above it (or negative, or
        // NaN) would make the cast undefined behaviour.
        if (!(v.asNumber() >= 0 && v.asNumber() < 18446744073709551616.0))
            return false;
        *out = static_cast<uint64_t>(v.asNumber());
        return true;
    }
    if (!v.isString())
        return false;
    // Digits only: strtoull alone accepts a sign ("-1" wraps to
    // 2^64-1) and leading whitespace, and saturates on overflow.
    const std::string &s = v.asString();
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long parsed = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

/**
 * Reads a value from a Json tree through its field list. The first
 * failure is kept in @p error; every later step is a no-op.
 */
class JsonReader : public schema::Visitor<JsonReader>
{
  public:
    static constexpr bool kReads = true;

    explicit JsonReader(std::string *error)
        : Visitor(StatusSlot::kAfterNames), error_(error)
    {
    }

    bool ok() const { return ok_; }

    template <class T>
    void operator()(const char *key, T &x, uint64_t cap = kUncapped)
    {
        if (const Json *j = member(key))
            get(*j, key, x, cap);
    }
    template <class F>
    void group(const char *key, F &&f)
    {
        const Json *j = member(key);
        if (j && expect(j->isObject(), key, "an object"))
            within(*j, false, f);
    }
    void hex(const char *key, std::string &bytes)
    {
        std::string text;
        (*this)(key, text);
        if (ok_ && !hexDecode(text, &bytes))
            fail(std::string("field '") + key + "' is not valid hex");
    }
    template <class T>
    void optional(const char *key, T &x)
    {
        if (ok_ && cur_->find(key))
            (*this)(key, x);
    }
    void choice(const char *key, bool &flag)
    {
        flag = ok_ && cur_->find(key);
    }
    template <class F>
    void check(F &&f)
    {
        if (!ok_)
            return;
        const std::string error = f();
        if (!error.empty())
            fail(error);
    }

    template <class T>
    void get(const Json &j, const char *key, T &x, uint64_t cap)
    {
        if constexpr (std::is_enum_v<T> && HasNames<T>::value) {
            if (!expect(j.isString(), key, "a string"))
                return;
            const auto &names = EnumTraits<T>::kNames;
            for (size_t i = 0; i < std::size(names); ++i) {
                if (j.asString() == names[i]) {
                    x = static_cast<T>(i);
                    return;
                }
            }
            fail(std::string("unknown ") + EnumTraits<T>::kWhat + " '" +
                 j.asString() + "'");
        } else if constexpr (std::is_enum_v<T>) {
            int32_t v = 0;
            get(j, key, v, cap);
            if (ok_ && (v < 0 || v > static_cast<int32_t>(
                                         EnumTraits<T>::kLast)))
                fail(std::string(EnumTraits<T>::kWhat) + " out of range");
            x = static_cast<T>(v);
        } else if constexpr (std::is_same_v<T, bool>) {
            if (tuple_) {
                int32_t v = 0;
                get(j, key, v, cap);
                if (ok_ && v < 0)
                    fail(std::string("field '") + key +
                         "' must be 0 or positive");
                x = v != 0;
            } else if (expect(j.isBool(), key, "a boolean")) {
                x = j.asBool();
            }
        } else if constexpr (std::is_same_v<T, double>) {
            if (j.isNumber())
                x = j.asNumber();
            else if (j.isString() && j.asString() == "nan")
                x = std::nan("");
            else if (j.isString() && j.asString() == "inf")
                x = HUGE_VAL;
            else if (j.isString() && j.asString() == "-inf")
                x = -HUGE_VAL;
            else
                expect(false, key, "a number (or nan/inf string)");
        } else if constexpr (std::is_same_v<T, uint64_t>) {
            expect(u64Value(j, &x), key,
                   "an unsigned integer (number or decimal string)");
        } else if constexpr (std::is_integral_v<T>) {
            // Range-check before the cast: converting an out-of-range
            // double to an integer is undefined behaviour, and the
            // value came off the wire. 64-bit values are bounded to
            // the exactly representable +/-2^53.
            constexpr bool k64 = sizeof(T) == 8;
            constexpr double lo =
                k64 ? -9007199254740992.0
                    : static_cast<double>(std::numeric_limits<T>::min());
            constexpr double hi =
                k64 ? 9007199254740992.0
                    : static_cast<double>(std::numeric_limits<T>::max());
            if (j.isNumber() && j.asNumber() >= lo && j.asNumber() <= hi) {
                x = static_cast<T>(j.asNumber());
            } else {
                fail(std::string("field '") + key +
                     "' must be an integer in [" +
                     std::to_string(static_cast<int64_t>(lo)) + ", " +
                     std::to_string(static_cast<int64_t>(hi)) + "]");
            }
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (expect(j.isString(), key, "a string"))
                x = j.asString();
        } else if constexpr (IsVector<T>::value) {
            if (!expect(j.isArray(), key, "an array"))
                return;
            if (j.size() > cap)
                return fail(std::string("field '") + key +
                            "' has too many elements");
            for (size_t i = 0; i < j.size() && ok_; ++i) {
                typename T::value_type e{};
                get(j.at(i), key, e, kUncapped);
                x.push_back(std::move(e));
            }
        } else if constexpr (IsArray<T>::value) {
            if (!expect(j.isArray(), key, "an array"))
                return;
            if (j.size() != x.size())
                return fail(std::string(key) + " has the wrong arity");
            for (size_t i = 0; i < x.size(); ++i)
                get(j.at(i), key, x[i], kUncapped);
        } else if constexpr (IsMap<T>::value) {
            if (!expect(j.isArray(), key, "an array"))
                return;
            for (size_t i = 0; i < j.size() && ok_; ++i) {
                const Json &pair = j.at(i);
                if (!expect(pair.isArray() && pair.size() == 2, key,
                            "a list of [key, value] pairs"))
                    return;
                typename T::key_type k{};
                typename T::mapped_type v{};
                get(pair.at(0), key, k, kUncapped);
                get(pair.at(1), key, v, kUncapped);
                x[k] = v;
            }
        } else if constexpr (kTupleArity<T> > 0) {
            if (!j.isArray() || j.size() != kTupleArity<T>)
                return fail(std::string(key) + " tuples must have " +
                            std::to_string(kTupleArity<T>) + " fields");
            within(j, true, [&] { fields(*this, x); });
        } else if (expect(j.isObject(), key, "an object")) {
            within(j, false, [&] { fields(*this, x); });
        }
    }

  private:
    const Json *member(const char *key)
    {
        if (!ok_)
            return nullptr;
        if (tuple_) // the arity was checked on entry
            return &cur_->at(next_++);
        const Json *v = cur_->find(key);
        if (!v)
            fail(std::string("missing field '") + key + "'");
        return v;
    }

    template <class F>
    void within(const Json &j, bool tuple, F &&f)
    {
        const Json *outer = std::exchange(cur_, &j);
        const bool outer_tuple = std::exchange(tuple_, tuple);
        const size_t outer_next = std::exchange(next_, 0);
        f();
        cur_ = outer;
        tuple_ = outer_tuple;
        next_ = outer_next;
    }

    bool expect(bool cond, const char *key, const char *what)
    {
        if (!cond)
            fail(std::string("field '") + key + "' must be " + what);
        return cond;
    }

    void fail(const std::string &what)
    {
        if (ok_ && error_ && error_->empty())
            *error_ = what;
        ok_ = false;
    }

    std::string *error_;
    bool ok_ = true;
    const Json *cur_ = nullptr;
    bool tuple_ = false;
    size_t next_ = 0;
};

template <class T>
bool
fromJson(const std::string &text, T *x, std::string *error, const char *what)
{
    Json j;
    if (!Json::parse(text, &j, error))
        return false;
    JsonReader reader(error);
    reader.get(j, what, *x, kUncapped);
    return reader.ok();
}

// =====================================================================
// Equality
// =====================================================================

/**
 * Walks one value's field list while decoding another value's binary
 * encoding, and keeps the path of the first field whose bits differ.
 */
class FieldComparer : public schema::Visitor<FieldComparer>
{
  public:
    static constexpr bool kReads = false;

    /** @p other: the binary encoding of a response. */
    explicit FieldComparer(const std::string &other)
        : Visitor(StatusSlot::kLeading), r_(other), leaf_(r_)
    {
    }

    /** Path of the first difference; empty when the values match. */
    const std::string &difference() const { return diff_; }

    template <class T>
    void operator()(const char *key, T &x, uint64_t = kUncapped)
    {
        path_.push_back({key, 0});
        same(x);
        path_.pop_back();
    }

    template <class T>
    void same(const T &x)
    {
        if (!diff_.empty())
            return;
        if constexpr (std::is_enum_v<T> || schema::kIsScalar<T>) {
            T other{};
            leaf_.get(other, kUncapped);
            // Bit identity: NaN == NaN, -0.0 != +0.0.
            bool equal = false;
            if constexpr (std::is_same_v<T, std::string>)
                equal = other == x;
            else
                equal = std::memcmp(&x, &other, sizeof(x)) == 0;
            if (!r_.ok() || !equal)
                differ();
        } else if constexpr (IsVector<T>::value || IsMap<T>::value ||
                             IsArray<T>::value) {
            if (!IsArray<T>::value && r_.u64() != x.size())
                return differ();
            size_t i = 0;
            for (const auto &e : x) {
                path_.push_back({nullptr, i++});
                if constexpr (IsMap<T>::value) {
                    same(e.first);
                    same(e.second);
                } else {
                    same(e);
                }
                path_.pop_back();
            }
        } else {
            fields(*this, const_cast<T &>(x));
        }
    }

  private:
    void differ()
    {
        for (const auto &[key, index] : path_) {
            if (key)
                diff_ += (diff_.empty() ? "" : ".") + std::string(key);
            else
                diff_ += "[" + std::to_string(index) + "]";
        }
    }

    ByteReader r_;
    schema::FieldReader leaf_;
    /** Field keys, and list indices (key == nullptr), root first. */
    std::vector<std::pair<const char *, size_t>> path_;
    std::string diff_;
};

} // namespace

// =====================================================================
// Entry points
// =====================================================================

void
writeRequest(ByteWriter &w, const AnalysisRequest &req)
{
    schema::write(w, req);
}

bool
readRequest(ByteReader &r, AnalysisRequest *req)
{
    return schema::read(r, req);
}

void
writeResponse(ByteWriter &w, const AnalysisResponse &resp)
{
    schema::write(w, resp, /*cellStatus=*/true);
}

bool
readResponse(ByteReader &r, AnalysisResponse *resp)
{
    return schema::read(r, resp, /*cellStatus=*/true);
}

std::string
requestToJson(const AnalysisRequest &req)
{
    return JsonWriter().value(req).dump();
}

bool
requestFromJson(const std::string &text, AnalysisRequest *req,
                std::string *error)
{
    return fromJson(text, req, error, "request");
}

std::string
responseToJson(const AnalysisResponse &resp)
{
    return JsonWriter().value(resp).dump();
}

bool
responseFromJson(const std::string &text, AnalysisResponse *resp,
                 std::string *error)
{
    return fromJson(text, resp, error, "response");
}

bool
responsesEqual(const AnalysisResponse &a, const AnalysisResponse &b,
               std::string *whyNot)
{
    ByteWriter w;
    writeResponse(w, b);
    FieldComparer comparer(w.bytes());
    comparer.same(a);
    const std::string &diff = comparer.difference();
    if (diff.empty())
        return true;
    if (whyNot)
        *whyNot = diff + " differs";
    return false;
}

} // namespace api
} // namespace gpuperf
