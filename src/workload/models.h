/**
 * @file
 * The model zoo used by the paper's evaluation (Sec. VI-A2):
 * ResNet-50, ResNet-101, Inception-ResNet-v1, RandWire, Transformer-Large
 * (for Fig. 3) and GPT-2 Small/XL in prefill and decode phases.
 *
 * All builders fold BatchNorm/bias/ReLU into the preceding conv (standard
 * inference practice) and use INT8 tensors. Shapes are ImageNet-style for
 * the CNNs and token-major (rows = tokens, channels = hidden) for the
 * transformers.
 */
#ifndef SOMA_WORKLOAD_MODELS_H
#define SOMA_WORKLOAD_MODELS_H

#include <cstdint>
#include <string>
#include <vector>

#include "workload/graph.h"

namespace soma {

/** ResNet-50 (He et al.), 224x224 input. */
Graph BuildResNet50(int batch);

/** ResNet-101, 224x224 input. */
Graph BuildResNet101(int batch);

/** Inception-ResNet-v1 (Szegedy et al.), 299x299 input, reduced repeats. */
Graph BuildInceptionResNetV1(int batch);

/**
 * RandWire (Xie et al.): randomly wired CNN in the small regime.
 * Deterministic for a given seed.
 */
Graph BuildRandWire(int batch, std::uint64_t seed = 7,
                    int nodes_per_stage = 10);

/** Transformer-Large encoder (Vaswani et al. "big"): 6 blocks, d=1024. */
Graph BuildTransformerLarge(int batch, int seq_len = 512);

/** GPT-2 family hyperparameters. */
struct Gpt2Config {
    int layers = 12;
    int hidden = 768;
    int heads = 12;
    int ffn = 3072;
};

/** GPT-2-Small (124M): 12 layers, hidden 768. */
Gpt2Config Gpt2Small();

/** GPT-2-XL (1.5B): 48 layers, hidden 1600. */
Gpt2Config Gpt2Xl();

/**
 * Prefill phase: process @p seq_len tokens in one pass.
 * KV pairs for every block are network outputs (written to DRAM).
 */
Graph BuildGpt2Prefill(const Gpt2Config &cfg, int batch, int seq_len);

/**
 * Decode phase: generate the (past_len+1)-th token. The KV cache of
 * @p past_len tokens per block is read from DRAM (external inputs) and
 * the new K/V rows are network outputs.
 */
Graph BuildGpt2Decode(const Gpt2Config &cfg, int batch, int past_len);

/** One named builder of the zoo. */
struct ModelZooEntry {
    const char *name;
    Graph (*build)(int batch);
};

/**
 * The zoo by canonical name, in listing order: "resnet50", "resnet101",
 * "ires", "randwire", "transformer-large", "gpt2s-prefill",
 * "gpt2s-decode" (Small at 512 tokens), "gpt2xl-prefill",
 * "gpt2xl-decode" (XL at 1024). The one name table: BuildModelByName,
 * AvailableModels and ModelRegistry::WithBuiltins read it.
 */
const std::vector<ModelZooEntry> &ModelZoo();

/** Builds the ModelZoo entry @p name. Dies on unknown names. */
Graph BuildModelByName(const std::string &name, int batch);

/** The ModelZoo names, in its order. */
std::vector<std::string> AvailableModels();

}  // namespace soma

#endif  // SOMA_WORKLOAD_MODELS_H
