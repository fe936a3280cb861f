/**
 * @file
 * Model-zoo tests: every paper workload builds, validates, and has the
 * expected scale (layer counts, weight footprints, op counts), plus the
 * model text format round trip.
 */
#include <gtest/gtest.h>

#include "workload/model_parser.h"
#include "workload/models.h"

namespace soma {
namespace {

TEST(ResNet50, Shape)
{
    Graph g = BuildResNet50(1);
    // 1 stem + 1 pool + 16 blocks x (3 conv + add) + 4 downsamples + gap
    // + fc = 72 layers.
    EXPECT_EQ(g.NumLayers(), 72);
    // ~25.5M weight bytes (INT8), within 10%.
    EXPECT_NEAR(static_cast<double>(g.TotalWeightBytes()), 25.5e6,
                2.6e6);
    // ~8.2 GOPs (2 * 4.1 GMACs), within 15%.
    EXPECT_NEAR(static_cast<double>(g.TotalOps()), 8.2e9, 1.3e9);
}

TEST(ResNet50, BatchScalesOpsNotWeights)
{
    Graph g1 = BuildResNet50(1);
    Graph g4 = BuildResNet50(4);
    EXPECT_EQ(g4.TotalOps(), 4 * g1.TotalOps());
    EXPECT_EQ(g4.TotalWeightBytes(), g1.TotalWeightBytes());
    EXPECT_EQ(g4.TotalFmapBytes(), 4 * g1.TotalFmapBytes());
}

TEST(ResNet101, DeeperThanResNet50)
{
    Graph g50 = BuildResNet50(1);
    Graph g101 = BuildResNet101(1);
    EXPECT_GT(g101.NumLayers(), g50.NumLayers());
    EXPECT_GT(g101.TotalOps(), g50.TotalOps());
    EXPECT_GT(g101.TotalWeightBytes(), g50.TotalWeightBytes());
    // ResNet-101 conv4_x has 23 blocks vs 6: 17 extra blocks x 4 layers.
    EXPECT_EQ(g101.NumLayers() - g50.NumLayers(), 17 * 4);
}

TEST(InceptionResNetV1, BuildsWideDag)
{
    Graph g = BuildInceptionResNetV1(1);
    EXPECT_GT(g.NumLayers(), 70);
    // Wide structure: some layer must have >= 2 consumers (branching).
    int max_consumers = 0;
    for (LayerId id = 0; id < g.NumLayers(); ++id) {
        max_consumers = std::max(
            max_consumers, static_cast<int>(g.Consumers(id).size()));
    }
    EXPECT_GE(max_consumers, 3);
}

TEST(RandWire, DeterministicPerSeed)
{
    Graph a = BuildRandWire(1, 7);
    Graph b = BuildRandWire(1, 7);
    EXPECT_EQ(a.NumLayers(), b.NumLayers());
    EXPECT_EQ(a.TotalOps(), b.TotalOps());
    EXPECT_EQ(SerializeModel(a), SerializeModel(b));
}

TEST(RandWire, DifferentSeedsRewire)
{
    Graph a = BuildRandWire(1, 7);
    Graph b = BuildRandWire(1, 8);
    EXPECT_NE(SerializeModel(a), SerializeModel(b));
}

TEST(TransformerLarge, Shape)
{
    Graph g = BuildTransformerLarge(1, 512);
    // 6 blocks x 14 layers (ln,q,k,v,qk,softmax,sv,proj,add,ln,ff1,gelu,
    // ff2,add) + embed + final LN = 86.
    EXPECT_EQ(g.NumLayers(), 6 * 14 + 2);
    // Weights per block: 4*D^2 + 8*D^2 = 12 * 1024^2 = 12.58M.
    EXPECT_NEAR(static_cast<double>(g.TotalWeightBytes()),
                6.0 * 12 * 1024 * 1024, 1e6);
}

TEST(Gpt2Small, WeightFootprint)
{
    Graph g = BuildGpt2Prefill(Gpt2Small(), 1, 512);
    // 12 blocks x 12 * 768^2 = 84.9M bytes.
    EXPECT_NEAR(static_cast<double>(g.TotalWeightBytes()),
                12.0 * 12 * 768 * 768, 1e6);
}

TEST(Gpt2Prefill, MarksKvAsOutputs)
{
    Graph g = BuildGpt2Prefill(Gpt2Small(), 1, 128);
    int kv_outputs = 0;
    for (LayerId id = 0; id < g.NumLayers(); ++id) {
        const std::string &n = g.layer(id).name();
        if (g.layer(id).isNetworkOutput() &&
            (n.find(".k") != std::string::npos ||
             n.find(".v") != std::string::npos)) {
            ++kv_outputs;
        }
    }
    EXPECT_EQ(kv_outputs, 2 * 12);
}

TEST(Gpt2Decode, HasKvCacheExternalInputs)
{
    const int past = 512;
    Graph g = BuildGpt2Decode(Gpt2Small(), 1, past);
    int kv_external = 0;
    for (LayerId id = 0; id < g.NumLayers(); ++id) {
        for (const InputRef &in : g.layer(id).inputs()) {
            if (in.producer == kNoLayer && in.ext.height == past)
                ++kv_external;
        }
    }
    // Two attention matmuls per block read the cache.
    EXPECT_EQ(kv_external, 2 * 12);
}

TEST(Gpt2Decode, SingleQueryRow)
{
    Graph g = BuildGpt2Decode(Gpt2Small(), 1, 512);
    for (LayerId id = 0; id < g.NumLayers(); ++id) {
        if (g.layer(id).name().find(".q") != std::string::npos) {
            EXPECT_EQ(g.layer(id).outHeight(), 1);
        }
    }
}

TEST(Gpt2Decode, ComputeDensityFarBelowPrefill)
{
    Graph prefill = BuildGpt2Prefill(Gpt2Small(), 1, 512);
    Graph decode = BuildGpt2Decode(Gpt2Small(), 1, 512);
    double prefill_density = static_cast<double>(prefill.TotalOps()) /
                             static_cast<double>(
                                 prefill.TotalWeightBytes());
    double decode_density = static_cast<double>(decode.TotalOps()) /
                            static_cast<double>(decode.TotalWeightBytes());
    EXPECT_GT(prefill_density, 100 * decode_density);
}

TEST(Gpt2Xl, BiggerThanSmall)
{
    Gpt2Config xl = Gpt2Xl();
    EXPECT_EQ(xl.layers, 48);
    EXPECT_EQ(xl.hidden, 1600);
    Graph g = BuildGpt2Prefill(xl, 1, 64);
    EXPECT_GT(g.TotalWeightBytes(),
              BuildGpt2Prefill(Gpt2Small(), 1, 64).TotalWeightBytes() * 10);
}

TEST(ModelRegistry, AllNamesBuild)
{
    for (const std::string &name : AvailableModels()) {
        Graph g = BuildModelByName(name, 1);
        EXPECT_GT(g.NumLayers(), 0) << name;
        EXPECT_GT(g.TotalOps(), 0) << name;
    }
}

TEST(ModelParser, RoundTripPreservesEveryModel)
{
    for (const std::string &name : AvailableModels()) {
        Graph g = BuildModelByName(name, 2);
        std::string text = SerializeModel(g);
        Graph back;
        std::string err;
        ASSERT_TRUE(ParseModel(text, &back, &err)) << name << ": " << err;
        EXPECT_EQ(back.NumLayers(), g.NumLayers()) << name;
        EXPECT_EQ(back.TotalOps(), g.TotalOps()) << name;
        EXPECT_EQ(back.TotalWeightBytes(), g.TotalWeightBytes()) << name;
        EXPECT_EQ(back.batch(), 2) << name;
        // Serialization is canonical: a second trip is byte-identical.
        EXPECT_EQ(SerializeModel(back), text) << name;
    }
}

TEST(ModelParser, RejectsMalformedInput)
{
    Graph g;
    std::string err;
    EXPECT_FALSE(ParseModel("layer bogus x", &g, &err));
    EXPECT_FALSE(ParseModel("layer conv a 1 1 1 0 1 1 0\nin 0 prod 5 row",
                            &g, &err));
    EXPECT_FALSE(ParseModel("nonsense directive", &g, &err));
    EXPECT_FALSE(
        ParseModel("layer conv a 1 1 1 0 1 1 0\nin 0 ext bogus 1 1 1", &g,
                   &err));
    // Non-positive shapes and batches fail with a line number instead
    // of reaching Graph::Validate's abort.
    EXPECT_FALSE(ParseModel("layer conv a 0 16 16 0 1 1 1", &g, &err));
    EXPECT_EQ(err, "line 1: layer output shape must be positive");
    EXPECT_FALSE(ParseModel("layer conv a 4 4 4 36 54 1 1\n"
                            "in 0 ext row 0 4 4",
                            &g, &err));
    EXPECT_EQ(err, "line 2: external input shape must be positive");
    EXPECT_FALSE(ParseModel("model m 0", &g, &err));
    EXPECT_EQ(err, "line 1: batch must be positive");
    // Impossible layers: zero-byte elements, negative weights or ops,
    // and windows with a zero kernel or stride or a negative pad.
    const char *const kExt = "\nin 0 ext row 4 4 4";
    const char *const kWinExt = "\nin 0 ext win 4 4 4";
    const struct {
        std::string text;
        const char *error;
    } kImpossible[] = {
        {std::string("layer conv a 4 4 4 36 54 0 1") + kExt,
         "line 1: element bytes must be at least 1"},
        {std::string("layer conv a 4 4 4 -36 54 1 1") + kExt,
         "line 1: weight bytes and ops per element must not be negative"},
        {std::string("layer conv a 4 4 4 36 -54 1 1") + kExt,
         "line 1: weight bytes and ops per element must not be negative"},
        {std::string("layer conv a 4 4 4 36 54 1 1 win 3 3 0 1 1 1") +
             kWinExt,
         "line 1: window kernel and stride must be at least 1"},
        {std::string("layer conv a 4 4 4 36 54 1 1 win 0 3 1 1 1 1") +
             kWinExt,
         "line 1: window kernel and stride must be at least 1"},
        {std::string("layer conv a 4 4 4 36 54 1 1 win 3 3 1 1 -1 1") +
             kWinExt,
         "line 1: window pad must not be negative"},
    };
    for (const auto &c : kImpossible) {
        EXPECT_FALSE(ParseModel(c.text, &g, &err)) << c.text;
        EXPECT_EQ(err, c.error) << c.text;
    }
}

TEST(ModelParser, CommentsAndBlankLinesIgnored)
{
    Graph g;
    std::string err;
    std::string text = "# header\n\nmodel tiny 1\n"
                       "layer conv a 4 4 4 36 54 1 1 win 3 3 1 1 1 1\n"
                       "in 0 ext win 3 4 4  # trailing comment\n";
    ASSERT_TRUE(ParseModel(text, &g, &err)) << err;
    EXPECT_EQ(g.NumLayers(), 1);
    EXPECT_EQ(g.layer(0).window().kernel_h, 3);
}

}  // namespace
}  // namespace soma
