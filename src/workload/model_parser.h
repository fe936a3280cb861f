/**
 * @file
 * Text serialization of workload graphs — the "DNN model description
 * file" input of the SoMa framework (Fig. 5). A front-end exporter (e.g.
 * from PyTorch) would emit this format; the model zoo can also dump it so
 * users can inspect or hand-edit workloads.
 *
 * Format (line oriented, '#' comments):
 *
 *   model <name> <batch>
 *   layer <kind> <name> <out_c> <out_h> <out_w> <weight_bytes>
 *         <ops_per_elem> <elem_bytes> <is_output> [win <kh> <kw> <sh> <sw>
 *         <ph> <pw>]
 *   in <layer_index> prod <producer_index> <pattern>
 *   in <layer_index> ext <pattern> <c> <h> <w>
 *
 * where <pattern> is one of: row | win | full.
 */
#ifndef SOMA_WORKLOAD_MODEL_PARSER_H
#define SOMA_WORKLOAD_MODEL_PARSER_H

#include <string>

#include "workload/graph.h"

namespace soma {

/** Serialize a graph to the model description text format. */
std::string SerializeModel(const Graph &graph);

/**
 * Parse a model description. Returns false (and fills @p error) on
 * malformed input; on success the graph is validated.
 */
bool ParseModel(const std::string &text, Graph *graph, std::string *error);

}  // namespace soma

#endif  // SOMA_WORKLOAD_MODEL_PARSER_H
