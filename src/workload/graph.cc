#include "workload/graph.h"

#include <cstdlib>
#include <memory>

#include "common/logging.h"

namespace soma {

namespace {

/** Whether @p ref's producer, if any, has an id below @p consumer: the
 *  topological-id rule TopoOrder() and the parser's canonical group
 *  order rely on. Checked in every build, like Graph::Validate. */
bool
ProducerPrecedes(const InputRef &ref, LayerId consumer)
{
    return ref.producer == kNoLayer ||
           (ref.producer >= 0 && ref.producer < consumer);
}

[[noreturn]] void
DieOutOfTopoOrder(const std::string &name, LayerId consumer,
                  LayerId producer)
{
    SOMA_ERROR << "layer " << name << " (id " << consumer
               << ") reads producer " << producer
               << ": graph layers must be appended in topological order";
    std::abort();
}

}  // namespace

LayerId
Graph::AddLayer(Layer layer)
{
    LayerId id = static_cast<LayerId>(layers_.size());
    for (const InputRef &in : layer.inputs())
        if (!ProducerPrecedes(in, id))
            DieOutOfTopoOrder(layer.name(), id, in.producer);
    layers_.push_back(std::move(layer));
    consumers_.Reset();
    return id;
}

void
Graph::AddInput(LayerId id, const InputRef &ref)
{
    if (id < 0 || id >= NumLayers()) {
        SOMA_ERROR << "AddInput on unknown layer id " << id;
        std::abort();
    }
    if (!ProducerPrecedes(ref, id))
        DieOutOfTopoOrder(layers_[id].name(), id, ref.producer);
    layers_[id].addInput(ref);
    consumers_.Reset();
}

const Graph::ConsumerIndex &
Graph::ConsumerCache::Get(const Graph &graph) const
{
    if (const ConsumerIndex *index = index_.load(std::memory_order_acquire))
        return *index;
    // AllEdges() lists edges by (consumer, input slot), which the
    // per-producer appends keep.
    auto index = std::make_unique<ConsumerIndex>(graph.NumLayers());
    for (const Edge &e : graph.AllEdges())
        (*index)[e.producer].push_back(e);

    const ConsumerIndex *expected = nullptr;
    if (index_.compare_exchange_strong(expected, index.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        return *index.release();
    return *expected;  // another thread published first
}

std::vector<Edge>
Graph::AllEdges() const
{
    std::vector<Edge> edges;
    for (LayerId c = 0; c < NumLayers(); ++c) {
        const auto &ins = layers_[c].inputs();
        for (int k = 0; k < static_cast<int>(ins.size()); ++k) {
            if (ins[k].producer != kNoLayer)
                edges.push_back(Edge{ins[k].producer, c, k});
        }
    }
    return edges;
}

bool
Graph::IsValidOrder(const std::vector<LayerId> &order) const
{
    if (static_cast<int>(order.size()) != NumLayers()) return false;
    std::vector<int> position(layers_.size(), -1);
    for (int pos = 0; pos < static_cast<int>(order.size()); ++pos) {
        LayerId id = order[pos];
        if (id < 0 || id >= NumLayers() || position[id] >= 0) return false;
        position[id] = pos;
    }
    for (LayerId c = 0; c < NumLayers(); ++c) {
        for (const InputRef &in : layers_[c].inputs()) {
            if (in.producer != kNoLayer &&
                position[in.producer] > position[c]) {
                return false;
            }
        }
    }
    return true;
}

std::vector<LayerId>
Graph::TopoOrder() const
{
    std::vector<LayerId> order(layers_.size());
    for (LayerId i = 0; i < NumLayers(); ++i) order[i] = i;
    return order;
}

void
Graph::Validate() const
{
    for (LayerId id = 0; id < NumLayers(); ++id) {
        const Layer &l = layers_[id];
        if (l.outChannels() <= 0 || l.outHeight() <= 0 || l.outWidth() <= 0) {
            SOMA_ERROR << "layer " << l.name() << " has empty output shape";
            std::abort();
        }
        for (const InputRef &in : l.inputs()) {
            if (in.producer == kNoLayer) {
                if (in.ext.channels <= 0 || in.ext.height <= 0 ||
                    in.ext.width <= 0) {
                    SOMA_ERROR << "layer " << l.name()
                               << " has an external input with empty shape";
                    std::abort();
                }
            } else if (in.producer >= id) {
                SOMA_ERROR << "layer " << l.name() << " breaks topo order";
                std::abort();
            }
        }
    }
}

Ops
Graph::TotalOps() const
{
    Ops total = 0;
    for (const Layer &l : layers_)
        total += l.OpsForRegion(l.FullRegion(batch_));
    return total;
}

Ops
Graph::TotalMatrixOps() const
{
    Ops total = 0;
    for (const Layer &l : layers_) {
        if (IsMatrixKind(l.kind()))
            total += l.OpsForRegion(l.FullRegion(batch_));
    }
    return total;
}

Bytes
Graph::TotalWeightBytes() const
{
    Bytes total = 0;
    for (const Layer &l : layers_) total += l.weightBytes();
    return total;
}

Bytes
Graph::TotalFmapBytes() const
{
    Bytes total = 0;
    for (const Layer &l : layers_)
        total += l.PerSampleOutputBytes() * batch_;
    return total;
}

}  // namespace soma
