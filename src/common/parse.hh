/**
 * @file
 * The one strict input reader. Every number, JSON-Lines field and
 * command-line flag read from outside the program goes through here,
 * so a malformed or out-of-range value is an error, never a silent 0,
 * a wrapped integer or a NaN that the milled build would then fold in
 * as a constant.
 *
 * A number is one whole decimal token: no spaces, no '+', no hex (bar
 * an explicit base 16), no nan or inf. Unsigned reads take no sign,
 * fraction or exponent; every read checks overflow and the caller's
 * range.
 */

#ifndef PMILL_COMMON_PARSE_HH
#define PMILL_COMMON_PARSE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pmill {

/**
 * Read @p s as an unsigned integer in [0, @p max]; @p base 16 reads
 * bare hex digits, as in MAC addresses. Each read returns false and
 * leaves @p out untouched on anything else.
 */
bool read_uint(std::string_view s, std::uint64_t max, std::uint64_t *out,
               int base = 10);

/** Read @p s as a signed decimal integer in [@p lo, @p hi]. */
bool read_int(std::string_view s, std::int64_t lo, std::int64_t hi,
              std::int64_t *out);

/** Read @p s as a finite decimal number in [@p lo, @p hi]. */
bool read_double(std::string_view s, double lo, double hi, double *out);

/** Bounds that admit every finite double. */
inline constexpr double kMinDouble = std::numeric_limits<double>::lowest();
inline constexpr double kMaxDouble = std::numeric_limits<double>::max();
/** Lower bound of an open range (0, hi]. */
inline constexpr double kMinPositive =
    std::numeric_limits<double>::denorm_min();

/** One flat JSON object: key -> raw value text (strings unescaped). */
using JsonObject = std::map<std::string, std::string>;

/**
 * Parse one flat JSON object line (string, bare-token and array
 * values, no nested objects) into @p out. Bare tokens and arrays are
 * kept as raw text; typed reads happen in JsonFields.
 * @return false on malformed input.
 */
bool parse_json_object_line(const std::string &line, JsonObject *out);

/**
 * Strict typed reads over one parsed JSON-Lines object. A missing key
 * reads as the zero value (older artifacts may lack newer fields); a
 * present-but-malformed or out-of-range value records the key in
 * `bad` so the caller can fail the whole line and name the field.
 */
struct JsonFields {
    const JsonObject &obj;
    std::string bad;  ///< first key with a malformed value; "" = ok

    /** String value; "" when missing. */
    std::string s(const char *key) const;

    /** Finite number. */
    double d(const char *key);

    /** Unsigned integer in [0, @p max]. */
    std::uint64_t u(const char *key, std::uint64_t max = UINT64_MAX);

    /** Signed integer in [@p lo, @p hi]. */
    std::int64_t i(const char *key, std::int64_t lo, std::int64_t hi);

    /** Comma-separated unsigned list inside a string ("1,2,3"). */
    std::vector<std::uint64_t> u64s(const char *key);

  private:
    void mark(const char *key);
};

/**
 * A declarative command-line flag table. Every valued flag takes
 * `--name value` or `--name=value`; a switch takes no value. A typed
 * flag carries its range and the `expect` text that its diagnostic
 * prints ("--cores expects a core count in [1, 64], got 'abc'").
 * Arguments that are not flags are positional; a lone "-" is one.
 */
class FlagTable {
  public:
    /**
     * @p prog names the tool in diagnostics; @p positional is the
     * usage text of its positional arguments ("<config.click>").
     */
    FlagTable(std::string prog, std::string positional);

    /** A switch: present sets *@p out. */
    FlagTable &on(const char *name, bool *out);

    /** Any string value (paths, specs). */
    FlagTable &text(const char *name, const char *meta, std::string *out);

    /** An unsigned integer in [@p lo, @p hi]. */
    FlagTable &u32(const char *name, const char *meta, std::uint32_t *out,
                   std::uint32_t lo, std::uint32_t hi, const char *expect);

    /** A finite number in [@p lo, @p hi]. */
    FlagTable &real(const char *name, const char *meta, double *out,
                    double lo, double hi, const char *expect);

    /** A value @p set accepts (returns true) or rejects. */
    FlagTable &custom(const char *name, const char *meta, const char *expect,
                      std::function<bool(const std::string &)> set);

    /**
     * Apply argv[1..argc) to the registered targets and collect the
     * positional arguments in @p positional.
     * @return false with a diagnostic naming the flag in @p err.
     */
    bool parse(int argc, const char *const *argv,
               std::vector<std::string> *positional, std::string *err) const;

    /** parse(), or fail() with its diagnostic. */
    std::vector<std::string> parse_or_exit(int argc,
                                           const char *const *argv) const;

    /** Print "<prog>: @p msg" and the usage line to stderr; exit 2. */
    [[noreturn]] void fail(const std::string &msg) const;

    /** "usage: <prog> <positional> [--flag META] ...\n". */
    std::string usage() const;

  private:
    struct Flag {
        std::string name;
        std::string meta;    ///< "" = switch
        std::string expect;
        std::function<bool(const std::string &)> set;
    };
    std::string prog_;
    std::string positional_;
    std::vector<Flag> flags_;
};

} // namespace pmill

#endif // PMILL_COMMON_PARSE_HH
