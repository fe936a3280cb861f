/**
 * @file
 * The intermediate representation emitted by SoMa's IR Generator
 * (Fig. 5): a flat, easily parsable description of a complete scheduling
 * scheme — the tile sequence, the DRAM tensors with their order and
 * Living Durations — decoupled from the search data structures so that
 * external schedulers can target the same instruction generator (the
 * paper's open compiler-platform plan, Sec. V-F).
 */
#ifndef SOMA_COMPILER_IR_H
#define SOMA_COMPILER_IR_H

#include <string>
#include <vector>

#include "notation/encoding.h"
#include "notation/parser.h"
#include "workload/graph.h"

namespace soma {

/** One compute step in the IR. */
struct IrTile {
    std::string layer;
    int lg = 0;
    int flg = 0;
    int round = 0;
    Region region;
    double seconds = 0.0;  ///< evaluated compute time of the tile
};

/** One DRAM transfer in the IR. */
struct IrTensor {
    std::string label;
    bool is_load = true;
    Bytes bytes = 0;
    TilePos start = 0;  ///< Living Duration start (loads: the knob)
    TilePos end = 0;    ///< Living Duration end (stores: the knob)
};

/** A complete scheme in IR form. */
struct IrModule {
    std::string model;
    int batch = 1;
    std::vector<IrTile> tiles;
    std::vector<IrTensor> tensors;   ///< in DRAM Tensor Order
    /** tile_deps[i]: tensor ranks that must complete before tile i. */
    std::vector<std::vector<int>> tile_deps;

    /** Serialize to the textual IR format. */
    std::string ToText() const;

    /** Parse the textual IR; returns false and fills @p error on issues. */
    static bool FromText(const std::string &text, IrModule *module,
                         std::string *error);
};

/** Lower a searched scheme into the IR. */
IrModule GenerateIr(const Graph &graph, const ParsedSchedule &parsed,
                    const DlsaEncoding &dlsa);

}  // namespace soma

#endif  // SOMA_COMPILER_IR_H
