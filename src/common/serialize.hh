/**
 * @file
 * Binary serialization codec for checkpoint/restore. Fixed-width
 * little-endian integers, bit-pattern doubles, and length-prefixed
 * strings make the byte stream deterministic across runs, which the
 * resume machinery depends on (a resumed run must re-produce the
 * exact bytes an uninterrupted run would have written).
 *
 * The stream carries no tags: the reader consumes exactly the bytes
 * the writer produced, in order. Each checkpointed class therefore
 * describes its state once, in a body
 *
 *     template <typename Ar, typename Self>
 *     static void io(Ar &ar, Self &self);
 *
 * run with a Serializer (Self = const C) to save and a Deserializer
 * (Self = C) to load; serialize() and deserialize() forward to it.
 * Both archives offer the same reference-taking calls, so one body
 * fixes the field order for both directions:
 *
 *  - u8, u32, u64, i64, f64, flag, str: a scalar at a fixed wire
 *    width (integers and enums are cast to it and back);
 *  - bit: one bit of a packed mask, as one byte;
 *  - obj: a member with its own serialize/deserialize pair;
 *  - seq / seq32: a container behind a u64 / u32 length prefix;
 *  - expect: a geometry or configuration value the loading object
 *    already holds; a load panics with the given text on a mismatch.
 *
 * The few steps only one direction takes are `if constexpr
 * (Ar::saving)` branches, and post-load rebuilds of derived state
 * follow the io() call in deserialize().
 */

#ifndef MCT_COMMON_SERIALIZE_HH
#define MCT_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"

namespace mct
{

/** 64-bit FNV-1a over a byte range; @p seed chains partial digests. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ULL);

/**
 * Append-only binary encoder. All integers are written little-endian
 * at fixed width; doubles are written as their IEEE-754 bit pattern.
 */
class Serializer
{
  public:
    static constexpr bool saving = true;

    void putU8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v) { putU64(static_cast<std::uint64_t>(v)); }
    void putF64(double v);
    void putStr(std::string_view v);

    template <typename T>
    void
    u8(const T &v)
    {
        putU8(static_cast<std::uint8_t>(v));
    }

    template <typename T>
    void
    u32(const T &v)
    {
        putU32(static_cast<std::uint32_t>(v));
    }

    template <typename T>
    void
    u64(const T &v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }

    template <typename T>
    void
    i64(const T &v)
    {
        putI64(static_cast<std::int64_t>(v));
    }

    template <typename T>
    void
    f64(const T &v)
    {
        putF64(static_cast<double>(v));
    }

    void flag(const bool &v) { putBool(v); }
    void str(const std::string &v) { putStr(v); }

    void
    bit(const std::uint64_t &mask, unsigned i)
    {
        putBool((mask >> i) & 1);
    }

    template <typename T>
    void
    obj(const T &v)
    {
        v.serialize(*this);
    }

    /** Write @p v at its type's width: bool and uint8_t as one byte,
     *  uint32_t, uint64_t, or a string. */
    template <typename T, typename... Msg>
    void
    expect(const T &v, const Msg &...)
    {
        wire(v);
    }

    /** A u64 length, then @p fn on each element. */
    template <typename C, typename Fn>
    void
    seq(const C &c, Fn &&fn)
    {
        putU64(c.size());
        for (const auto &e : c)
            fn(e);
    }

    /** seq() with a u32 length prefix. */
    template <typename C, typename Fn>
    void
    seq32(const C &c, Fn &&fn)
    {
        putU32(static_cast<std::uint32_t>(c.size()));
        for (const auto &e : c)
            fn(e);
    }

    /** The encoded bytes so far. */
    const std::string &data() const { return buf; }

    std::size_t size() const { return buf.size(); }

  private:
    std::string buf;

    void wire(bool v) { putBool(v); }
    void wire(std::uint8_t v) { putU8(v); }
    void wire(std::uint32_t v) { putU32(v); }
    void wire(std::uint64_t v) { putU64(v); }
    void wire(const std::string &v) { putStr(v); }
};

namespace detail
{

/** What a loading seq() default-constructs per element: the value
 *  type, or a mutable (key, value) pair for maps. */
template <typename C>
struct SeqItem
{
    using type = typename C::value_type;
};

template <typename C>
    requires requires { typename C::mapped_type; }
struct SeqItem<C>
{
    using type =
        std::pair<typename C::key_type, typename C::mapped_type>;
};

} // namespace detail

/**
 * Bounds-checked decoder over a byte range. A read past the end marks
 * the stream failed and returns zero values from then on; callers
 * check ok() once after decoding a section. The checkpoint loader
 * verifies the checksum before any decoding, so a failed stream means
 * a format bug, not file corruption.
 */
class Deserializer
{
  public:
    static constexpr bool saving = false;

    Deserializer(const void *data, std::size_t size)
        : p(static_cast<const unsigned char *>(data)), n(size)
    {}

    explicit Deserializer(std::string_view bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8();
    bool getBool() { return getU8() != 0; }
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }
    double getF64();
    std::string getStr();

    template <typename T>
    void
    u8(T &v)
    {
        v = static_cast<T>(getU8());
    }

    template <typename T>
    void
    u32(T &v)
    {
        v = static_cast<T>(getU32());
    }

    template <typename T>
    void
    u64(T &v)
    {
        v = static_cast<T>(getU64());
    }

    template <typename T>
    void
    i64(T &v)
    {
        v = static_cast<T>(getI64());
    }

    template <typename T>
    void
    f64(T &v)
    {
        v = static_cast<T>(getF64());
    }

    void flag(bool &v) { v = getBool(); }
    void str(std::string &v) { v = getStr(); }

    void
    bit(std::uint64_t &mask, unsigned i)
    {
        const std::uint64_t b = std::uint64_t{1} << i;
        mask = getBool() ? mask | b : mask & ~b;
    }

    template <typename T>
    void
    obj(T &v)
    {
        v.deserialize(*this);
    }

    /** Read a value of @p v's type; panic with @p msg unless equal. */
    template <typename T, typename... Msg>
    void
    expect(const T &v, const Msg &...msg)
    {
        T got{};
        wire(got);
        if (got != v)
            mct_panic(msg...);
    }

    /**
     * Refill @p c from a u64 length prefix, running @p fn on each
     * default-constructed element before appending it. Every element
     * takes at least one byte, so a length beyond remaining() fails
     * the stream before anything is allocated; reading stops at the
     * first element the stream runs out in, which is not appended.
     */
    template <typename C, typename Fn>
    void
    seq(C &c, Fn &&fn)
    {
        fill(c, getU64(), fn);
    }

    /** seq() with a u32 length prefix. */
    template <typename C, typename Fn>
    void
    seq32(C &c, Fn &&fn)
    {
        fill(c, getU32(), fn);
    }

    /** False once any read ran past the end of the buffer. */
    bool ok() const { return good; }

    /** True when every byte has been consumed (and no read failed). */
    bool atEnd() const { return good && pos == n; }

    std::size_t remaining() const { return n - pos; }

  private:
    const unsigned char *p;
    std::size_t n;
    std::size_t pos = 0;
    bool good = true;

    /** Reserve @p count bytes; returns nullptr and fails on underrun. */
    const unsigned char *take(std::size_t count);

    void wire(bool &v) { v = getBool(); }
    void wire(std::uint8_t &v) { v = getU8(); }
    void wire(std::uint32_t &v) { v = getU32(); }
    void wire(std::uint64_t &v) { v = getU64(); }
    void wire(std::string &v) { v = getStr(); }

    template <typename C, typename Fn>
    void
    fill(C &c, std::uint64_t len, Fn &fn)
    {
        c.clear();
        if (len > remaining()) {
            good = false;
            return;
        }
        if constexpr (requires { c.reserve(len); })
            c.reserve(static_cast<std::size_t>(len));
        for (std::uint64_t i = 0; i < len; ++i) {
            typename detail::SeqItem<C>::type e{};
            fn(e);
            if (!good)
                return;
            c.insert(c.end(), std::move(e));
        }
    }
};

} // namespace mct

#endif // MCT_COMMON_SERIALIZE_HH
