/**
 * @file
 * Fluent construction helper shared by the model-zoo builders. Computes
 * output shapes, per-element op counts and weight footprints so the
 * individual model files read like network definitions.
 */
#ifndef SOMA_WORKLOAD_GRAPH_BUILDER_H
#define SOMA_WORKLOAD_GRAPH_BUILDER_H

#include <cassert>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "workload/graph.h"

namespace soma {

/**
 * Incrementally builds a Graph. All "from" parameters are LayerIds of
 * previously added layers; kNoLayer plus an ExtShape denotes a network
 * input residing in DRAM.
 */
class GraphBuilder {
  public:
    GraphBuilder(std::string name, int batch) : graph_(std::move(name),
                                                       batch) {}

    /** Finalize: validates and returns the graph. */
    Graph Take()
    {
        graph_.Validate();
        return std::move(graph_);
    }

    Graph &graph() { return graph_; }

    int C(LayerId id) const { return graph_.layer(id).outChannels(); }
    int H(LayerId id) const { return graph_.layer(id).outHeight(); }
    int W(LayerId id) const { return graph_.layer(id).outWidth(); }

    /** Conv reading the network input tensor @p in from DRAM. */
    LayerId InputConv(const std::string &name, const ExtShape &in, int out_c,
                      int kernel, int stride, int pad);

    /** Conv consuming another layer. @p groups models grouped/depthwise. */
    LayerId Conv(const std::string &name, LayerId from, int out_c, int kernel,
                 int stride, int pad, int groups = 1);

    /** Windowed max/avg pooling. */
    LayerId Pool(const std::string &name, LayerId from, int kernel,
                 int stride, int pad);

    /** Global average pooling to 1x1. */
    LayerId GlobalPool(const std::string &name, LayerId from);

    /** Fully connected over the flattened producer (needs full extent). */
    LayerId FcFull(const std::string &name, LayerId from, int out_features);

    /** Token-wise GEMM with static weights (rows preserved). */
    LayerId GemmRows(const std::string &name, LayerId from, int out_features);

    /**
     * GEMM between two activations (attention). Operand @p a is
     * row-aligned (rows preserved), operand @p b is needed in full.
     * @p k_dim is the contraction length, @p out_channels the per-row
     * output width. Additional full-pattern external operands (KV cache)
     * can be attached with AddExternalInput().
     */
    LayerId Matmul(const std::string &name, LayerId a, LayerId b, int k_dim,
                   int out_channels);

    /** N-ary elementwise op (residual adds etc.). */
    LayerId Eltwise(const std::string &name,
                    const std::vector<LayerId> &from);

    /** Pointwise activation; @p ops_per_elem approximates its cost. */
    LayerId Act(const std::string &name, LayerId from, Ops ops_per_elem = 1);

    /** LayerNorm over channels per token. */
    LayerId LayerNormOp(const std::string &name, LayerId from);

    /** Channel concatenation. */
    LayerId Concat(const std::string &name,
                   const std::vector<LayerId> &from);

    /** Attach an extra external (DRAM-resident) input to a layer. */
    void AddExternalInput(LayerId id, const ExtShape &shape,
                          AccessPattern pattern = AccessPattern::kFull);

    /** Mark a layer's ofmap as a network output (stored to DRAM). */
    void MarkOutput(LayerId id) { graph_.SetNetworkOutput(id, true); }

  private:
    LayerId Add(Layer layer) { return graph_.AddLayer(std::move(layer)); }

    Graph graph_;
};

}  // namespace soma

#endif  // SOMA_WORKLOAD_GRAPH_BUILDER_H
