/**
 * @file
 * Unit tests for common utilities: RNG determinism and distributions,
 * the name registry, table rendering, formatting helpers, logging
 * levels.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/registry.h"
#include "common/rng.h"
#include "common/table.h"

namespace soma {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.UniformInt(0, 1 << 20) == b.UniformInt(0, 1 << 20)) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int v = rng.UniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(7);
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.UniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, FlipProbabilityRoughlyRespected)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 10000; ++i) {
        if (rng.Flip(0.25)) ++heads;
    }
    EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

TEST(Rng, WeightedIndexProportional)
{
    Rng rng(17);
    std::vector<double> weights = {1.0, 3.0};
    int counts[2] = {0, 0};
    for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(weights)];
    EXPECT_NEAR(counts[1] / 20000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexAllZeroReturnsMinusOne)
{
    Rng rng(19);
    std::vector<double> weights = {0.0, 0.0};
    EXPECT_EQ(rng.WeightedIndex(weights), -1);
    EXPECT_EQ(rng.WeightedIndex({}), -1);
}

TEST(Registry, NamesKeepRegistrationOrder)
{
    Registry<int> reg("widget");
    reg.Register("b", 1);
    reg.Register("a", 2);
    reg.Register("c", 3);
    EXPECT_EQ(reg.Names(), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(Registry, ReplacingKeepsPosition)
{
    Registry<int> reg("widget");
    reg.Register("b", 1);
    reg.Register("a", 2);
    const int *before = reg.Find("b", nullptr);
    reg.Register("b", 7);
    EXPECT_EQ(reg.Names(), (std::vector<std::string>{"b", "a"}));
    ASSERT_NE(reg.Find("b", nullptr), nullptr);
    EXPECT_EQ(*reg.Find("b", nullptr), 7);
    EXPECT_EQ(reg.Find("b", nullptr), before);  // replaced in place
    EXPECT_EQ(*reg.Find("a", nullptr), 2);
}

TEST(Registry, UnknownFindReturnsNullAndListsNames)
{
    Registry<int> reg("widget");
    EXPECT_EQ(reg.Find("x", nullptr), nullptr);  // a null err is fine
    std::string err;
    EXPECT_EQ(reg.Find("x", &err), nullptr);
    EXPECT_EQ(err, "unknown widget \"x\" (registered: )");
    reg.Register("a", 1);
    reg.Register("b", 2);
    EXPECT_EQ(reg.Find("x", &err), nullptr);
    EXPECT_EQ(err, "unknown widget \"x\" (registered: a, b)");
    err = "untouched";
    EXPECT_NE(reg.Find("a", &err), nullptr);
    EXPECT_EQ(err, "untouched");  // a hit leaves err alone
}

TEST(Table, AlignedPrinting)
{
    Table t({"net", "speedup"});
    t.AddRow({"resnet50", "2.15"});
    t.AddRow({"gpt2", "1.14"});
    std::ostringstream os;
    t.Print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("resnet50"), std::string::npos);
    EXPECT_NE(text.find("speedup"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.AddRow({"1", "2"});
    std::ostringstream os;
    t.PrintCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Format, DoublePrecision)
{
    EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(Format, Bytes)
{
    EXPECT_EQ(FormatBytes(512), "512.00B");
    EXPECT_EQ(FormatBytes(8.0 * 1024 * 1024), "8.00MB");
    EXPECT_EQ(FormatBytes(2.0 * 1024 * 1024 * 1024), "2.00GB");
}

TEST(Logging, LevelFilter)
{
    LogLevel old = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    EXPECT_EQ(GetLogLevel(), LogLevel::kError);
    SetLogLevel(old);
}

}  // namespace
}  // namespace soma
