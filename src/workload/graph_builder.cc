#include "workload/graph_builder.h"

namespace soma {

namespace {

int
ConvOutDim(int in, int kernel, int stride, int pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace

LayerId
GraphBuilder::InputConv(const std::string &name, const ExtShape &in,
                        int out_c, int kernel, int stride, int pad)
{
    int oh = ConvOutDim(in.height, kernel, stride, pad);
    int ow = ConvOutDim(in.width, kernel, stride, pad);
    Layer l(name, LayerKind::kConv, out_c, oh, ow);
    l.setWindow(WindowParams{kernel, kernel, stride, stride, pad, pad});
    l.setOpsPerElement(2LL * in.channels * kernel * kernel);
    l.setWeightBytes(static_cast<Bytes>(out_c) * in.channels * kernel *
                     kernel);
    l.addInput(InputRef{kNoLayer, AccessPattern::kWindow, in});
    return Add(std::move(l));
}

LayerId
GraphBuilder::Conv(const std::string &name, LayerId from, int out_c,
                   int kernel, int stride, int pad, int groups)
{
    int in_c = C(from);
    assert(in_c % groups == 0 && out_c % groups == 0);
    int oh = ConvOutDim(H(from), kernel, stride, pad);
    int ow = ConvOutDim(W(from), kernel, stride, pad);
    LayerKind kind =
        (groups == in_c && groups == out_c) ? LayerKind::kDepthwise
                                            : LayerKind::kConv;
    Layer l(name, kind, out_c, oh, ow);
    l.setWindow(WindowParams{kernel, kernel, stride, stride, pad, pad});
    l.setOpsPerElement(2LL * (in_c / groups) * kernel * kernel);
    l.setWeightBytes(static_cast<Bytes>(out_c) * (in_c / groups) * kernel *
                     kernel);
    l.addInput(InputRef{from, AccessPattern::kWindow, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::Pool(const std::string &name, LayerId from, int kernel,
                   int stride, int pad)
{
    int oh = ConvOutDim(H(from), kernel, stride, pad);
    int ow = ConvOutDim(W(from), kernel, stride, pad);
    Layer l(name, LayerKind::kPool, C(from), oh, ow);
    l.setWindow(WindowParams{kernel, kernel, stride, stride, pad, pad});
    l.setOpsPerElement(static_cast<Ops>(kernel) * kernel);
    l.addInput(InputRef{from, AccessPattern::kWindow, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::GlobalPool(const std::string &name, LayerId from)
{
    Layer l(name, LayerKind::kGlobalPool, C(from), 1, 1);
    l.setOpsPerElement(static_cast<Ops>(H(from)) * W(from));
    l.addInput(InputRef{from, AccessPattern::kFull, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::FcFull(const std::string &name, LayerId from, int out_features)
{
    Ops in_features = static_cast<Ops>(C(from)) * H(from) * W(from);
    Layer l(name, LayerKind::kGemm, out_features, 1, 1);
    l.setOpsPerElement(2 * in_features);
    l.setWeightBytes(static_cast<Bytes>(out_features) * in_features);
    l.addInput(InputRef{from, AccessPattern::kFull, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::GemmRows(const std::string &name, LayerId from,
                       int out_features)
{
    Layer l(name, LayerKind::kGemm, out_features, H(from), W(from));
    l.setOpsPerElement(2LL * C(from));
    l.setWeightBytes(static_cast<Bytes>(out_features) * C(from));
    l.addInput(InputRef{from, AccessPattern::kRowAligned, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::Matmul(const std::string &name, LayerId a, LayerId b, int k_dim,
                     int out_channels)
{
    Layer l(name, LayerKind::kMatmul, out_channels, H(a), W(a));
    l.setOpsPerElement(2LL * k_dim);
    l.addInput(InputRef{a, AccessPattern::kRowAligned, {}});
    l.addInput(InputRef{b, AccessPattern::kFull, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::Eltwise(const std::string &name,
                      const std::vector<LayerId> &from)
{
    assert(!from.empty());
    Layer l(name, LayerKind::kEltwise, C(from[0]), H(from[0]), W(from[0]));
    l.setOpsPerElement(static_cast<Ops>(from.size()));
    for (LayerId id : from) {
        assert(C(id) == C(from[0]) && H(id) == H(from[0]) &&
               W(id) == W(from[0]));
        l.addInput(InputRef{id, AccessPattern::kRowAligned, {}});
    }
    return Add(std::move(l));
}

LayerId
GraphBuilder::Act(const std::string &name, LayerId from, Ops ops_per_elem)
{
    Layer l(name, LayerKind::kActivation, C(from), H(from), W(from));
    l.setOpsPerElement(ops_per_elem);
    l.addInput(InputRef{from, AccessPattern::kRowAligned, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::LayerNormOp(const std::string &name, LayerId from)
{
    Layer l(name, LayerKind::kLayerNorm, C(from), H(from), W(from));
    l.setOpsPerElement(8);
    l.addInput(InputRef{from, AccessPattern::kRowAligned, {}});
    return Add(std::move(l));
}

LayerId
GraphBuilder::Concat(const std::string &name, const std::vector<LayerId> &from)
{
    assert(!from.empty());
    int channels = 0;
    for (LayerId id : from) {
        assert(H(id) == H(from[0]) && W(id) == W(from[0]));
        channels += C(id);
    }
    Layer l(name, LayerKind::kConcat, channels, H(from[0]), W(from[0]));
    l.setOpsPerElement(1);
    for (LayerId id : from)
        l.addInput(InputRef{id, AccessPattern::kRowAligned, {}});
    return Add(std::move(l));
}

void
GraphBuilder::AddExternalInput(LayerId id, const ExtShape &shape,
                               AccessPattern pattern)
{
    graph_.AddInput(id, InputRef{kNoLayer, pattern, shape});
}

}  // namespace soma
