/**
 * @file
 * One field list per serialized type, walked by visitors — the single
 * schema behind the binary store/wire codecs, the JSON codec and
 * response equality.
 *
 * Every type that crosses a transport or lands in a store entry names
 * its members ONCE, in binary order, each with its JSON key:
 *
 *     template <class V>
 *     void
 *     fields(V &v, arch::Occupancy &x)
 *     {
 *         v("blocksByRegisters", x.blocksByRegisters);
 *         ...
 *     }
 *
 * The lists live in namespace schema (store/codecs.h, store/
 * result_store.h, api/codecs.h, api/codecs.cc). Every visitor derives
 * from schema::Visitor<Self>, which holds the protocol's binary
 * defaults and lets argument-dependent lookup find the lists from any
 * namespace. Five visitors walk them: FieldWriter and FieldReader
 * (binary, below), JsonWriter and JsonReader, and FieldComparer, the
 * equality walk behind api::responsesEqual (all three in
 * api/codecs.cc). A member's place in its list is its place on the
 * wire: reordering or inserting is a kSchemaVersion / kFormatVersion
 * bump.
 *
 * What a field list may call:
 *  - v(key, member[, cap]) — a value. Scalars: bool, 8/16/32/64-bit
 *    integers, double, std::string, and enums with an EnumTraits
 *    specialization (a u8 in binary). Containers: std::vector (a u64
 *    count, then the elements; a count above @p cap fails the read),
 *    std::array (elements only), std::map (count, then key/value
 *    pairs). Anything else needs its own fields(): inline in binary,
 *    a nested JSON object.
 *  - v.splice(member) — a struct's fields inline in JSON as well.
 *  - v.group(key, f) — the fields f visits, as one nested JSON
 *    object; inline in binary.
 *  - v.hex(key, bytes) — a byte string JSON carries as hex.
 *  - v.optional(key, member) — a JSON key readers may find absent.
 *  - v.choice(key, flag) — a two-way union tag: a u8 in binary, the
 *    presence of @p key in JSON.
 *  - v.status(slot, ok, error) — the cell-status wrapper of
 *    fields(driver::BatchResult).
 *  - v.check(f) — readers call f() once the fields before it are
 *    read; a non-empty message fails the read. Writers skip it.
 *  - V::kReads and v.ok() — for adapters whose reader must build the
 *    value rather than fill it in (isa::Kernel, api::KernelJob).
 */

#ifndef GPUPERF_STORE_FIELDS_H
#define GPUPERF_STORE_FIELDS_H

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "store/serializer.h"

namespace gpuperf {
namespace schema {

/** No cap on a list's length. */
constexpr uint64_t kUncapped = std::numeric_limits<uint64_t>::max();

/**
 * Where v.status() is called from inside fields(BatchResult), and
 * which call a visitor honours (kNone: neither).
 */
enum class StatusSlot { kNone, kLeading, kAfterNames };

/**
 * Per-enum wire facts. A specialization defines kLast (the largest
 * valid value; the valid range is 0..kLast) and kWhat (the noun read
 * errors use), plus kNames when JSON carries the enum by name rather
 * than as a number.
 */
template <class E>
struct EnumTraits;

template <class E, class = void>
struct HasNames : std::false_type {};
template <class E>
struct HasNames<E, std::void_t<decltype(EnumTraits<E>::kNames)>>
    : std::true_type {};

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

template <class T>
struct IsArray : std::false_type {};
template <class T, size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};

template <class T>
struct IsMap : std::false_type {};
template <class K, class T>
struct IsMap<std::map<K, T>> : std::true_type {};

/** The leaf types with a fixed binary encoding (see ByteWriter). */
template <class T>
constexpr bool kIsScalar = std::is_arithmetic_v<T> ||
                           std::is_same_v<T, std::string>;

/**
 * Base of every visitor, holding the protocol's default — binary —
 * behaviour: splices, groups, hex and optional keys are plain fields,
 * a choice is a u8 tag, and checks are skipped. @p D supplies
 * operator()(key, member, cap) and overrides what its format changes.
 */
template <class D>
class Visitor
{
  public:
    template <class T>
    void splice(T &x)
    {
        fields(self(), x);
    }
    template <class F>
    void group(const char *, F &&f)
    {
        f();
    }
    void hex(const char *key, std::string &bytes) { self()(key, bytes); }
    template <class T>
    void optional(const char *key, T &x)
    {
        self()(key, x);
    }
    void choice(const char *key, bool &flag)
    {
        uint8_t tag = flag ? 1 : 0;
        self()(key, tag);
        self().check([&] { return tag > 1 ? "bad union tag" : ""; });
        flag = tag == 1;
    }
    void status(StatusSlot slot, bool &ok, std::string &error)
    {
        if (slot == statusSlot_) {
            self()("ok", ok);
            self()("error", error);
        }
    }
    template <class F>
    void check(F &&)
    {
    }

  protected:
    explicit Visitor(StatusSlot statusSlot = StatusSlot::kNone)
        : statusSlot_(statusSlot)
    {
    }

  private:
    D &self() { return static_cast<D &>(*this); }

    const StatusSlot statusSlot_;
};

/** Binary writer. @p cellStatus: write the response cell status. */
class FieldWriter : public Visitor<FieldWriter>
{
  public:
    static constexpr bool kReads = false;

    explicit FieldWriter(store::ByteWriter &w, bool cellStatus = false)
        : Visitor(cellStatus ? StatusSlot::kLeading : StatusSlot::kNone),
          w_(w)
    {
    }

    template <class T>
    void operator()(const char *, T &x, uint64_t = kUncapped)
    {
        put(x);
    }

    template <class T>
    void put(const T &x)
    {
        if constexpr (std::is_same_v<T, bool>)
            w_.b(x);
        else if constexpr (std::is_same_v<T, double>)
            w_.f64(x);
        else if constexpr (std::is_same_v<T, std::string>)
            w_.str(x);
        else if constexpr (std::is_enum_v<T>)
            w_.u8(static_cast<uint8_t>(x));
        else if constexpr (std::is_arithmetic_v<T> && sizeof(T) == 1)
            w_.u8(static_cast<uint8_t>(x));
        else if constexpr (std::is_arithmetic_v<T> && sizeof(T) == 2)
            w_.u16(static_cast<uint16_t>(x));
        else if constexpr (std::is_arithmetic_v<T> && sizeof(T) == 4)
            w_.u32(static_cast<uint32_t>(x));
        else if constexpr (std::is_arithmetic_v<T>)
            w_.u64(static_cast<uint64_t>(x));
        else if constexpr (IsArray<T>::value || IsVector<T>::value ||
                           IsMap<T>::value)
            putList(x);
        else
            fields(*this, const_cast<T &>(x));
    }

  private:
    template <class T>
    void putList(const T &list)
    {
        if constexpr (!IsArray<T>::value)
            w_.u64(list.size());
        for (const auto &e : list) {
            if constexpr (IsMap<T>::value) {
                put(e.first);
                put(e.second);
            } else {
                put(e);
            }
        }
    }

    store::ByteWriter &w_;
};

/**
 * Binary reader. Failures set the ByteReader's sticky flag, after
 * which every read yields zeros and lists read empty; callers check
 * ok() once at the end. Lists append, so read into fresh objects.
 */
class FieldReader : public Visitor<FieldReader>
{
  public:
    static constexpr bool kReads = true;

    explicit FieldReader(store::ByteReader &r, bool cellStatus = false)
        : Visitor(cellStatus ? StatusSlot::kLeading : StatusSlot::kNone),
          r_(r)
    {
    }

    bool ok() const { return r_.ok(); }

    template <class T>
    void operator()(const char *, T &x, uint64_t cap = kUncapped)
    {
        get(x, cap);
    }
    template <class F>
    void check(F &&f)
    {
        if (r_.ok() && !std::string(f()).empty())
            r_.fail();
    }

    template <class T>
    void get(T &x, uint64_t cap)
    {
        if constexpr (std::is_same_v<T, bool>) {
            x = r_.b();
        } else if constexpr (std::is_same_v<T, double>) {
            x = r_.f64();
        } else if constexpr (std::is_same_v<T, std::string>) {
            x = r_.str();
        } else if constexpr (std::is_enum_v<T>) {
            const uint8_t v = r_.u8();
            if (v > static_cast<uint8_t>(EnumTraits<T>::kLast))
                r_.fail();
            else
                x = static_cast<T>(v);
        } else if constexpr (std::is_arithmetic_v<T>) {
            if constexpr (sizeof(T) == 1)
                x = static_cast<T>(r_.u8());
            else if constexpr (sizeof(T) == 2)
                x = static_cast<T>(r_.u16());
            else if constexpr (sizeof(T) == 4)
                x = static_cast<T>(r_.u32());
            else
                x = static_cast<T>(r_.u64());
        } else if constexpr (IsArray<T>::value) {
            for (auto &e : x)
                get(e, kUncapped);
        } else if constexpr (IsVector<T>::value || IsMap<T>::value) {
            const uint64_t n = r_.u64();
            if (n > cap)
                r_.fail();
            for (uint64_t i = 0; i < n && r_.ok(); ++i) {
                if constexpr (IsMap<T>::value) {
                    typename T::key_type k{};
                    get(k, kUncapped);
                    get(x[k], kUncapped);
                } else {
                    x.emplace_back();
                    get(x.back(), kUncapped);
                }
            }
        } else {
            fields(*this, x);
        }
    }

  private:
    store::ByteReader &r_;
};

/** Binary-encode @p x through its field list. */
template <class T>
void
write(store::ByteWriter &w, const T &x, bool cellStatus = false)
{
    FieldWriter(w, cellStatus).put(x);
}

/** Decode @p x through its field list; false on malformed input. */
template <class T>
bool
read(store::ByteReader &r, T *x, bool cellStatus = false)
{
    FieldReader(r, cellStatus).get(*x, kUncapped);
    return r.ok();
}

} // namespace schema
} // namespace gpuperf

#endif // GPUPERF_STORE_FIELDS_H
