/**
 * @file
 * DNN layer model: kinds, shapes, operation counts, and the access
 * patterns that map a consumer's output region to the producer region it
 * needs. This is the substrate beneath the Tensor-centric Notation.
 */
#ifndef SOMA_WORKLOAD_LAYER_H
#define SOMA_WORKLOAD_LAYER_H

#include <string>
#include <vector>

#include "common/types.h"
#include "workload/region.h"

namespace soma {

/** Functional class of a layer; decides which engine executes it. */
enum class LayerKind {
    kConv,       ///< 2-D convolution (PE array)
    kDepthwise,  ///< depthwise convolution (PE array)
    kPool,       ///< windowed max/avg pooling (vector unit)
    kGlobalPool, ///< global average pooling (vector unit)
    kGemm,       ///< GEMM with static weights: FC / projections (PE array)
    kMatmul,     ///< GEMM between two activations: attention (PE array)
    kEltwise,    ///< elementwise add/mul (vector unit)
    kActivation, ///< ReLU / GELU / softmax (vector unit)
    kLayerNorm,  ///< layer normalization (vector unit)
    kConcat,     ///< channel concatenation (vector unit / DMA)
};

/** True if the kind runs on the PE (matrix) array rather than vector unit. */
bool IsMatrixKind(LayerKind kind);

/** Short mnemonic ("conv", "gemm", ...) used by the model text format. */
const char *LayerKindName(LayerKind kind);

/** Inverse of LayerKindName; returns false if unknown. */
bool LayerKindFromName(const std::string &name, LayerKind *kind);

/**
 * How a consumer's output region maps to the producer region it reads.
 */
enum class AccessPattern {
    kRowAligned,  ///< same (batch,row,col) sites: eltwise, GEMM A operand
    kWindow,      ///< receptive-field expansion: conv / pool
    kFull,        ///< needs the producer's full spatial extent per batch:
                  ///< attention B operand, global pooling, flatten+FC
};

/** Receptive-field parameters for AccessPattern::kWindow. */
struct WindowParams {
    int kernel_h = 1;
    int kernel_w = 1;
    int stride_h = 1;
    int stride_w = 1;
    int pad_h = 0;
    int pad_w = 0;
};

/**
 * Shape of a tensor that lives outside the graph (network input fmaps,
 * KV-cache reads in decode). Per-sample shape; batch comes from regions.
 */
struct ExtShape {
    int channels = 0;
    int height = 0;
    int width = 0;
    Bytes PerSampleBytes(int elem_bytes) const
    {
        return static_cast<Bytes>(channels) * height * width * elem_bytes;
    }
};

/**
 * One input of a layer: either another layer's ofmap (producer >= 0) or
 * an external DRAM tensor (producer == kNoLayer, shape in ext).
 */
struct InputRef {
    LayerId producer = kNoLayer;
    AccessPattern pattern = AccessPattern::kRowAligned;
    ExtShape ext;  ///< only meaningful when producer == kNoLayer
};

/**
 * A single DNN layer.
 *
 * Shapes are per-sample (the batch dimension lives in the Graph); all
 * tensors use INT8 (1 byte/element) by default, matching the paper's
 * evaluation precision.
 */
class Layer {
  public:
    Layer() = default;
    Layer(std::string name, LayerKind kind, int out_c, int out_h, int out_w);

    const std::string &name() const { return name_; }
    LayerKind kind() const { return kind_; }

    int outChannels() const { return out_c_; }
    int outHeight() const { return out_h_; }
    int outWidth() const { return out_w_; }

    /** Weight bytes resident in DRAM; 0 for weight-less layers. */
    Bytes weightBytes() const { return weight_bytes_; }
    void setWeightBytes(Bytes b) { weight_bytes_ = b; }

    /** Ops per output element (2*C*R*S for conv, 2*K for GEMM, ...). */
    Ops opsPerElement() const { return ops_per_elem_; }
    void setOpsPerElement(Ops ops) { ops_per_elem_ = ops; }

    int elemBytes() const { return elem_bytes_; }
    void setElemBytes(int b) { elem_bytes_ = b; }

    const WindowParams &window() const { return window_; }
    void setWindow(const WindowParams &w) { window_ = w; }

    const std::vector<InputRef> &inputs() const { return inputs_; }
    void addInput(InputRef ref) { inputs_.push_back(ref); }

    /** True if the layer's ofmap is an overall network output. */
    bool isNetworkOutput() const { return is_network_output_; }
    void setNetworkOutput(bool v) { is_network_output_ = v; }

    /** Whether the layer runs on the vector unit. */
    bool isVectorOp() const { return !IsMatrixKind(kind_); }

    /** Full output region (batch taken as a parameter). */
    Region FullRegion(int batch) const
    {
        return Region{0, batch, 0, out_h_, 0, out_w_};
    }

    /** Bytes of the ofmap slice covered by @p region. */
    Bytes OutputBytes(const Region &region) const
    {
        return region.Sites() * out_c_ * elem_bytes_;
    }

    /** Per-sample ofmap bytes. */
    Bytes PerSampleOutputBytes() const
    {
        return static_cast<Bytes>(out_c_) * out_h_ * out_w_ * elem_bytes_;
    }

    /** Total ops to produce @p region of the ofmap. */
    Ops OpsForRegion(const Region &region) const
    {
        return region.Sites() * out_c_ * ops_per_elem_;
    }

    /**
     * The producer-side region this layer must read to produce
     * @p out_region, for input @p input. @p prod_h / @p prod_w give the
     * producer's (or external tensor's) spatial extent for clipping.
     */
    Region RequiredInputRegion(const InputRef &input, const Region &out_region,
                               int prod_h, int prod_w) const;

    /** Bytes read from input @p input for consumer region @p out_region,
     *  given the producer's channel count @p prod_c and extent. */
    Bytes InputBytes(const InputRef &input, const Region &out_region,
                     int prod_c, int prod_h, int prod_w) const;

  private:
    std::string name_;
    LayerKind kind_ = LayerKind::kConv;
    int out_c_ = 0;
    int out_h_ = 0;
    int out_w_ = 0;
    Bytes weight_bytes_ = 0;
    Ops ops_per_elem_ = 0;
    int elem_bytes_ = 1;
    WindowParams window_;
    std::vector<InputRef> inputs_;
    bool is_network_output_ = false;
};

}  // namespace soma

#endif  // SOMA_WORKLOAD_LAYER_H
