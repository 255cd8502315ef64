/**
 * @file
 * The strict input reader: whole-token number reads, the flat JSON
 * line reader and its typed field accessor, and the flag table.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/parse.hh"

namespace pmill {
namespace {

TEST(ParseReads, TokensAreWholeAndInRange)
{
    struct Case {
        const char *text;
        bool as_uint;    ///< read_uint(text, UINT64_MAX) accepts
        bool as_double;  ///< read_double(text, any finite) accepts
    };
    const Case cases[] = {
        {"", false, false},
        {"-1", false, true},
        {"+1", false, false},
        {" 1", false, false},
        {"1 ", false, false},
        {"1e3", false, true},
        {"18446744073709551615", true, true},   // 2^64 - 1
        {"18446744073709551616", false, true},  // 2^64
        {"0x10", false, false},
        {"nan", false, false},
        {"inf", false, false},
        {"-inf", false, false},
        {"1e309", false, false},
        {"-0x1p3", false, false},
        {"007", true, true},
        {"0", true, true},
        {"42", true, true},
        {"-0.25e-3", false, true},
    };
    for (const Case &c : cases) {
        std::uint64_t u = 7;
        double d = 7;
        EXPECT_EQ(read_uint(c.text, UINT64_MAX, &u), c.as_uint)
            << "'" << c.text << "'";
        EXPECT_EQ(read_double(c.text, kMinDouble, kMaxDouble, &d),
                  c.as_double)
            << "'" << c.text << "'";
        if (!c.as_uint) {
            EXPECT_EQ(u, 7u) << "a rejected read leaves the target alone";
        }
    }

    // The caller's bound is part of the read.
    std::uint64_t u = 0;
    EXPECT_TRUE(read_uint("4294967295", UINT32_MAX, &u));
    EXPECT_FALSE(read_uint("4294967296", UINT32_MAX, &u));
    EXPECT_TRUE(read_uint("ff", 0xFF, &u, 16));
    EXPECT_EQ(u, 0xFFu);
    EXPECT_FALSE(read_uint("100", 0xFF, &u, 16));
    double d = 0;
    EXPECT_TRUE(read_double("4", 0.0, 4.0, &d));
    EXPECT_FALSE(read_double("4.0001", 0.0, 4.0, &d));
    EXPECT_FALSE(read_double("-0.5", 0.0, 4.0, &d));
    std::int64_t i = 0;
    EXPECT_TRUE(read_int("-1", -1, 3, &i));
    EXPECT_EQ(i, -1);
    EXPECT_FALSE(read_int("-2", -1, 3, &i));
    EXPECT_FALSE(read_int("4", -1, 3, &i));
    EXPECT_FALSE(read_int("-", -1, 3, &i));
    EXPECT_FALSE(read_int("--1", -5, 3, &i));
}

TEST(ParseJsonLine, EscapesAreStrict)
{
    JsonObject o;
    ASSERT_TRUE(parse_json_object_line(
        "{\"a\":\"\\u0001\\/\\b\"}", &o));
    EXPECT_EQ(o.at("a"), "\x01/\b");
    EXPECT_FALSE(parse_json_object_line("{\"a\":\"\\u00zz\"}", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":\"\\u00e9\"}", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":\"\\u00\"}", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":\"\\q\"}", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":1} trailing", &o));
}

TEST(ParseJsonLine, FieldsNameTheFirstBadKey)
{
    JsonObject o;
    ASSERT_TRUE(parse_json_object_line(
        "{\"n\":1.5,\"u\":7,\"neg\":-3,\"list\":\"1,2\",\"bad\":\"oops\","
        "\"big\":4294967296}",
        &o));
    JsonFields f{o, {}};
    EXPECT_DOUBLE_EQ(f.d("n"), 1.5);
    EXPECT_EQ(f.u("u", 7), 7u);
    EXPECT_EQ(f.i("neg", -3, 0), -3);
    EXPECT_EQ(f.u64s("list"), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(f.d("missing"), 0.0);
    EXPECT_TRUE(f.bad.empty());
    EXPECT_EQ(f.u("big", UINT32_MAX), 0u);
    EXPECT_EQ(f.d("bad"), 0.0);
    EXPECT_EQ(f.bad, "big");
}

/** Run @p args (argv[0] excluded) through @p t. */
bool
run_flags(const FlagTable &t, std::vector<const char *> args,
          std::vector<std::string> *pos, std::string *err)
{
    args.insert(args.begin(), "prog");
    return t.parse(static_cast<int>(args.size()), args.data(), pos, err);
}

TEST(FlagTable, BothFormsAndPositionals)
{
    std::uint32_t cores = 1;
    double rate = 1.0;
    bool verify = false;
    std::string path;
    FlagTable t("prog", "<file>");
    t.u32("--cores", "N", &cores, 1, 64, "a core count in [1, 64]")
        .real("--rate", "R", &rate, 0.0, 1.0, "a fraction in [0, 1]")
        .on("--verify", &verify)
        .text("--out", "PATH", &path);
    std::vector<std::string> pos;
    std::string err;
    ASSERT_TRUE(run_flags(t,
                          {"a.click", "--cores", "4", "--rate=0.5",
                           "--verify", "--out=x=y", "-"},
                          &pos, &err))
        << err;
    EXPECT_EQ(cores, 4u);
    EXPECT_DOUBLE_EQ(rate, 0.5);
    EXPECT_TRUE(verify);
    EXPECT_EQ(path, "x=y");
    EXPECT_EQ(pos, (std::vector<std::string>{"a.click", "-"}));
    EXPECT_NE(t.usage().find("[--cores N]"), std::string::npos);
    EXPECT_NE(t.usage().find("[--verify]"), std::string::npos);
}

TEST(FlagTable, RejectsMalformedValues)
{
    double host_threshold = -1;
    std::uint32_t top = 5, cores = 1;
    bool verify = false;
    FlagTable t("prog", "<file>");
    t.real("--host-threshold", "PCT", &host_threshold, 0.0, 1000.0,
           "a percentage in [0, 1000]")
        .u32("--top", "N", &top, 1, 1000, "a row count in [1, 1000]")
        .u32("--cores", "N", &cores, 1, 64, "a core count in [1, 64]")
        .on("--verify", &verify);
    const struct {
        std::vector<const char *> args;
        const char *names;
    } cases[] = {
        {{"--host-threshold", "abc"}, "--host-threshold"},
        {{"--top", "3x"}, "--top"},
        {{"--cores=abc"}, "--cores"},
        {{"--verify=1"}, "--verify"},
        {{"--cores", "65"}, "--cores"},
        {{"--cores"}, "--cores"},
        {{"--bogus"}, "--bogus"},
        {{"--host-threshold=nan"}, "--host-threshold"},
    };
    for (const auto &c : cases) {
        std::vector<std::string> pos;
        std::string err;
        EXPECT_FALSE(run_flags(t, c.args, &pos, &err)) << c.names;
        EXPECT_NE(err.find(c.names), std::string::npos) << err;
    }
    EXPECT_EQ(host_threshold, -1.0);
    EXPECT_EQ(top, 5u);
    EXPECT_EQ(cores, 1u);
}

} // namespace
} // namespace pmill
