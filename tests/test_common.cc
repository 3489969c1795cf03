/**
 * @file
 * Unit tests for the common substrate: RNG, stats, table, CLI, math,
 * JSON writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/cli.h"
#include "common/json_writer.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace pade {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(123);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; i++) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(5);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        const int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(9);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0);
    EXPECT_EQ(roundUp(1, 8), 8);
    EXPECT_EQ(roundUp(8, 8), 8);
    EXPECT_EQ(roundUp(9, 8), 16);
}

TEST(MathUtil, SaturateInt8)
{
    EXPECT_EQ(saturateInt8(300.0f), 127);
    EXPECT_EQ(saturateInt8(-300.0f), -128);
    EXPECT_EQ(saturateInt8(1.4f), 1);
    EXPECT_EQ(saturateInt8(-1.6f), -2);
}

TEST(MathUtil, Pow2Helpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
    EXPECT_EQ(log2Exact(64), 6);
}

TEST(MathUtil, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_NEAR(geoMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geoMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(MathUtil, MeanOfVector)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, ScalarAccumulates)
{
    StatGroup g("g");
    g.scalar("x") += 2.0;
    g.scalar("x") += 3.0;
    g.scalar("y")++;
    EXPECT_DOUBLE_EQ(g.get("x"), 5.0);
    EXPECT_DOUBLE_EQ(g.get("y"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("missing"), 0.0);
    EXPECT_TRUE(g.has("x"));
    EXPECT_FALSE(g.has("missing"));
}

TEST(Stats, DistributionMoments)
{
    StatGroup g("g");
    auto &d = g.distribution("d");
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_NEAR(d.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(Stats, MergeSumsScalars)
{
    StatGroup a("a");
    StatGroup b("b");
    a.scalar("x") += 1.0;
    b.scalar("x") += 2.0;
    b.scalar("z") += 4.0;
    a.mergeFrom(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("z"), 4.0);
}

TEST(Stats, ResetClears)
{
    StatGroup g("g");
    g.scalar("x") += 1.0;
    g.distribution("d").sample(1.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.get("x"), 0.0);
    EXPECT_EQ(g.distribution("d").count(), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    Table t("caption");
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"long-name", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("caption"), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::mult(2.5, 1), "2.5x");
    EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(Cli, ParsesFlagsAndPositional)
{
    // Positionals come before flags: a bare "--flag" would otherwise
    // greedily bind the next token as its value ("--name value" form).
    const char *argv[] = {"prog", "pos1", "--alpha=0.5", "--seq",
                          "2048", "--flag"};
    Cli cli(6, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(cli.getDouble("alpha", 0.0), 0.5);
    EXPECT_EQ(cli.getInt("seq", 0), 2048);
    EXPECT_TRUE(cli.getBool("flag"));
    EXPECT_FALSE(cli.getBool("other"));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    Cli cli(1, const_cast<char **>(argv));
    EXPECT_EQ(cli.get("name", "def"), "def");
    EXPECT_EQ(cli.getInt("n", 7), 7);
    EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, BoolFalseString)
{
    const char *argv[] = {"prog", "--flag=false"};
    Cli cli(2, const_cast<char **>(argv));
    EXPECT_FALSE(cli.getBool("flag", true));
}

TEST(JsonWriter, NestingAndCommas)
{
    JsonWriter w;
    w.beginObject();
    w.value("a", int64_t{1});
    w.beginObject("empty_obj");
    w.endObject();
    w.beginArray("empty_arr");
    w.endArray();
    w.beginArray("rows");
    w.beginObject();
    w.value("x", true);
    w.value("y", false);
    w.endObject();
    w.value(int64_t{-2});
    w.beginArray();
    w.value("s");
    w.endArray();
    w.endArray();
    w.value("z", "end");
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\":1,\"empty_obj\":{},\"empty_arr\":[],\"rows\":[\n"
              "{\"x\":true,\"y\":false},\n"
              "-2,\n"
              "[\n\"s\"\n]\n"
              "],\"z\":\"end\"}");
}

TEST(JsonWriter, EscapesStringsAndKeys)
{
    JsonWriter w;
    w.beginObject();
    w.value("k\"\\", "q\"b\\n\nc\x01");
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"k\\\"\\\\\":\"q\\\"b\\\\n\\u000ac\\u0001\"}");
}

TEST(JsonWriter, Numbers)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::nan(""));
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity());
    w.value(std::numeric_limits<uint64_t>::max());
    w.value(std::numeric_limits<int64_t>::min());
    w.value(0.1);
    w.value(1.0 / 3.0);
    w.value(2.5e-7);
    w.endArray();
    EXPECT_EQ(w.str(), "[\n0,\n0,\n0,\n18446744073709551615,\n"
                       "-9223372036854775808,\n0.1,\n"
                       "0.3333333333333333,\n2.5e-07\n]");
    // Shortest round-trip: parsing the text gives the same double.
    JsonWriter third;
    third.value(1.0 / 3.0);
    EXPECT_EQ(std::stod(third.str()), 1.0 / 3.0);
}

TEST(JsonWriter, RawEmbedsDocument)
{
    JsonWriter inner;
    inner.beginObject();
    inner.value("n", uint64_t{7});
    inner.endObject();
    JsonWriter w;
    w.beginObject();
    w.value("schema", "s");
    w.raw("inner", inner.str());
    w.value("after", 1.5);
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"schema\":\"s\",\"inner\":{\"n\":7},\"after\":1.5}");
}

TEST(JsonWriter, WriteTextFile)
{
    const std::string path = testing::TempDir() + "pade_json_writer.txt";
    ASSERT_TRUE(writeTextFile(path, "{}\n"));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[8] = {};
    EXPECT_EQ(std::fread(buf, 1, sizeof buf, f), 3u);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_STREQ(buf, "{}\n");
    EXPECT_FALSE(writeTextFile(
        testing::TempDir() + "pade_no_such_dir/x.json", "{}"));
}

} // namespace
} // namespace pade
