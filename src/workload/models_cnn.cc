/**
 * @file
 * ResNet-50 / ResNet-101 builders plus the zoo's name table (ModelZoo).
 */
#include "workload/models.h"

#include <array>
#include <cstdlib>

#include "common/logging.h"
#include "workload/graph_builder.h"

namespace soma {

namespace {

/**
 * One bottleneck residual block: 1x1 -> 3x3 -> 1x1 plus identity or
 * 1x1-stride projection shortcut, followed by an elementwise add.
 */
LayerId
Bottleneck(GraphBuilder &b, const std::string &prefix, LayerId in, int mid_c,
           int out_c, int stride, bool project)
{
    LayerId c1 = b.Conv(prefix + ".conv1", in, mid_c, 1, 1, 0);
    LayerId c2 = b.Conv(prefix + ".conv2", c1, mid_c, 3, stride, 1);
    LayerId c3 = b.Conv(prefix + ".conv3", c2, out_c, 1, 1, 0);
    LayerId shortcut = in;
    if (project)
        shortcut = b.Conv(prefix + ".down", in, out_c, 1, stride, 0);
    return b.Eltwise(prefix + ".add", {c3, shortcut});
}

Graph
BuildResNet(const std::string &name, int batch,
            const std::array<int, 4> &repeats)
{
    GraphBuilder b(name, batch);
    ExtShape image{3, 224, 224};
    LayerId stem = b.InputConv("conv1", image, 64, 7, 2, 3);
    LayerId x = b.Pool("pool1", stem, 3, 2, 1);

    const int mids[4] = {64, 128, 256, 512};
    const int outs[4] = {256, 512, 1024, 2048};
    for (int stage = 0; stage < 4; ++stage) {
        for (int block = 0; block < repeats[stage]; ++block) {
            std::string prefix = "conv" + std::to_string(stage + 2) + "_" +
                                 std::to_string(block + 1);
            int stride = (block == 0 && stage > 0) ? 2 : 1;
            bool project = (block == 0);
            x = Bottleneck(b, prefix, x, mids[stage], outs[stage], stride,
                           project);
        }
    }
    LayerId gap = b.GlobalPool("gap", x);
    LayerId fc = b.FcFull("fc", gap, 1000);
    b.MarkOutput(fc);
    return b.Take();
}

}  // namespace

Graph
BuildResNet50(int batch)
{
    return BuildResNet("resnet50", batch, {3, 4, 6, 3});
}

Graph
BuildResNet101(int batch)
{
    return BuildResNet("resnet101", batch, {3, 4, 23, 3});
}

const std::vector<ModelZooEntry> &
ModelZoo()
{
    static const std::vector<ModelZooEntry> kZoo = {
        {"resnet50", BuildResNet50},
        {"resnet101", BuildResNet101},
        {"ires", BuildInceptionResNetV1},
        {"randwire", [](int batch) { return BuildRandWire(batch); }},
        {"transformer-large",
         [](int batch) { return BuildTransformerLarge(batch); }},
        {"gpt2s-prefill",
         [](int batch) { return BuildGpt2Prefill(Gpt2Small(), batch, 512); }},
        {"gpt2s-decode",
         [](int batch) { return BuildGpt2Decode(Gpt2Small(), batch, 512); }},
        {"gpt2xl-prefill",
         [](int batch) { return BuildGpt2Prefill(Gpt2Xl(), batch, 1024); }},
        {"gpt2xl-decode",
         [](int batch) { return BuildGpt2Decode(Gpt2Xl(), batch, 1024); }},
    };
    return kZoo;
}

Graph
BuildModelByName(const std::string &name, int batch)
{
    for (const ModelZooEntry &m : ModelZoo())
        if (name == m.name) return m.build(batch);
    SOMA_ERROR << "unknown model: " << name;
    std::abort();
}

std::vector<std::string>
AvailableModels()
{
    std::vector<std::string> names;
    for (const ModelZooEntry &m : ModelZoo()) names.emplace_back(m.name);
    return names;
}

}  // namespace soma
