#include "workload/model_parser.h"

#include <sstream>

namespace soma {

namespace {

const char *
PatternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::kRowAligned: return "row";
      case AccessPattern::kWindow: return "win";
      case AccessPattern::kFull: return "full";
    }
    return "?";
}

bool
PatternFromName(const std::string &s, AccessPattern *p)
{
    if (s == "row") { *p = AccessPattern::kRowAligned; return true; }
    if (s == "win") { *p = AccessPattern::kWindow; return true; }
    if (s == "full") { *p = AccessPattern::kFull; return true; }
    return false;
}

bool
HasWindow(const Layer &l)
{
    for (const InputRef &in : l.inputs())
        if (in.pattern == AccessPattern::kWindow) return true;
    return false;
}

}  // namespace

std::string
SerializeModel(const Graph &graph)
{
    std::ostringstream os;
    os << "# SoMa model description\n";
    os << "model " << graph.name() << " " << graph.batch() << "\n";
    for (LayerId id = 0; id < graph.NumLayers(); ++id) {
        const Layer &l = graph.layer(id);
        os << "layer " << LayerKindName(l.kind()) << " " << l.name() << " "
           << l.outChannels() << " " << l.outHeight() << " " << l.outWidth()
           << " " << l.weightBytes() << " " << l.opsPerElement() << " "
           << l.elemBytes() << " " << (l.isNetworkOutput() ? 1 : 0);
        if (HasWindow(l)) {
            const WindowParams &w = l.window();
            os << " win " << w.kernel_h << " " << w.kernel_w << " "
               << w.stride_h << " " << w.stride_w << " " << w.pad_h << " "
               << w.pad_w;
        }
        os << "\n";
        for (const InputRef &in : l.inputs()) {
            if (in.producer == kNoLayer) {
                os << "in " << id << " ext " << PatternName(in.pattern)
                   << " " << in.ext.channels << " " << in.ext.height << " "
                   << in.ext.width << "\n";
            } else {
                os << "in " << id << " prod " << in.producer << " "
                   << PatternName(in.pattern) << "\n";
            }
        }
    }
    return os.str();
}

bool
ParseModel(const std::string &text, Graph *graph, std::string *error)
{
    auto fail = [&](const std::string &msg, int line_no) {
        if (error) {
            *error = "line " + std::to_string(line_no) + ": " + msg;
        }
        return false;
    };

    // Two-pass parse: collect layers, then attach inputs, then build the
    // graph (AddLayer requires inputs to be known up front).
    std::vector<Layer> layers;
    std::vector<std::vector<InputRef>> inputs;
    std::string model_name = "model";
    int batch = 1;

    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        auto hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        std::istringstream ls(line);
        std::string tok;
        if (!(ls >> tok)) continue;
        if (tok == "model") {
            if (!(ls >> model_name >> batch))
                return fail("malformed model line", line_no);
            if (batch <= 0) return fail("batch must be positive", line_no);
        } else if (tok == "layer") {
            std::string kind_name, name;
            int c, h, w, elem, is_out;
            long long wbytes, opselem;
            if (!(ls >> kind_name >> name >> c >> h >> w >> wbytes >>
                  opselem >> elem >> is_out))
                return fail("malformed layer line", line_no);
            if (c <= 0 || h <= 0 || w <= 0)
                return fail("layer output shape must be positive", line_no);
            if (elem < 1)
                return fail("element bytes must be at least 1", line_no);
            if (wbytes < 0 || opselem < 0)
                return fail("weight bytes and ops per element must not be "
                            "negative",
                            line_no);
            LayerKind kind;
            if (!LayerKindFromName(kind_name, &kind))
                return fail("unknown layer kind " + kind_name, line_no);
            Layer l(name, kind, c, h, w);
            l.setWeightBytes(wbytes);
            l.setOpsPerElement(opselem);
            l.setElemBytes(elem);
            l.setNetworkOutput(is_out != 0);
            std::string win;
            if (ls >> win) {
                if (win != "win")
                    return fail("unexpected token " + win, line_no);
                WindowParams wp;
                if (!(ls >> wp.kernel_h >> wp.kernel_w >> wp.stride_h >>
                      wp.stride_w >> wp.pad_h >> wp.pad_w))
                    return fail("malformed window", line_no);
                if (wp.kernel_h < 1 || wp.kernel_w < 1 || wp.stride_h < 1 ||
                    wp.stride_w < 1)
                    return fail("window kernel and stride must be at least 1",
                                line_no);
                if (wp.pad_h < 0 || wp.pad_w < 0)
                    return fail("window pad must not be negative", line_no);
                l.setWindow(wp);
            }
            layers.push_back(std::move(l));
            inputs.emplace_back();
        } else if (tok == "in") {
            int layer_idx;
            std::string src;
            if (!(ls >> layer_idx >> src))
                return fail("malformed in line", line_no);
            if (layer_idx < 0 || layer_idx >= static_cast<int>(layers.size()))
                return fail("input references unknown layer", line_no);
            InputRef ref;
            std::string pat;
            if (src == "prod") {
                int prod;
                if (!(ls >> prod >> pat))
                    return fail("malformed prod input", line_no);
                if (prod < 0 || prod >= layer_idx)
                    return fail("producer must precede consumer", line_no);
                ref.producer = prod;
            } else if (src == "ext") {
                if (!(ls >> pat >> ref.ext.channels >> ref.ext.height >>
                      ref.ext.width))
                    return fail("malformed ext input", line_no);
                if (ref.ext.channels <= 0 || ref.ext.height <= 0 ||
                    ref.ext.width <= 0)
                    return fail("external input shape must be positive",
                                line_no);
                ref.producer = kNoLayer;
            } else {
                return fail("unknown input source " + src, line_no);
            }
            if (!PatternFromName(pat, &ref.pattern))
                return fail("unknown pattern " + pat, line_no);
            inputs[layer_idx].push_back(ref);
        } else {
            return fail("unknown directive " + tok, line_no);
        }
    }

    Graph g(model_name, batch);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        for (const InputRef &in : inputs[i]) layers[i].addInput(in);
        g.AddLayer(std::move(layers[i]));
    }
    g.Validate();
    *graph = std::move(g);
    return true;
}

}  // namespace soma
