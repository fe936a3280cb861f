/**
 * @file
 * The workload graph: a DAG of layers plus the batch size, with the
 * dependency queries used by the notation parser and the search stages.
 */
#ifndef SOMA_WORKLOAD_GRAPH_H
#define SOMA_WORKLOAD_GRAPH_H

#include <atomic>
#include <string>
#include <vector>

#include "common/types.h"
#include "workload/layer.h"

namespace soma {

/** A (producer, consumer, input slot) dependency record. */
struct Edge {
    LayerId producer = kNoLayer;
    LayerId consumer = kNoLayer;
    int input_index = 0;  ///< index into consumer's inputs()
};

/**
 * A DNN workload: layers, dependencies, batch size.
 *
 * Layers are stored in construction order, which must be a valid
 * topological order (builders naturally satisfy this). The scheduling
 * layers' Computing Order is a permutation of [0, NumLayers()).
 */
class Graph {
  public:
    Graph() = default;
    Graph(std::string name, int batch) : name_(std::move(name)),
                                         batch_(batch) {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    int batch() const { return batch_; }
    void setBatch(int b) { batch_ = b; }

    int NumLayers() const { return static_cast<int>(layers_.size()); }

    /** Append a layer; returns its id. Inputs must reference earlier
     *  ids; a violation dies in every build. */
    LayerId AddLayer(Layer layer);

    /** Layers are read-only once added: the consumer index mirrors
     *  their inputs, so the only input mutator is AddInput. */
    const Layer &layer(LayerId id) const { return layers_[id]; }

    /** Append input @p ref to layer @p id after AddLayer. The producer
     *  (if any) must precede @p id; a violation dies in every build. */
    void AddInput(LayerId id, const InputRef &ref);

    /** Mark (or unmark) layer @p id's ofmap as a network output. */
    void SetNetworkOutput(LayerId id, bool v)
    {
        layers_[id].setNetworkOutput(v);
    }

    /** All consumer edges of @p id, ordered by (consumer, input slot).
     *  Safe to call from several threads on a shared const Graph; the
     *  reference is valid until the graph changes. */
    const std::vector<Edge> &Consumers(LayerId id) const
    {
        return consumers_.Get(*this)[id];
    }

    /** All edges of the graph (producer >= 0 only). */
    std::vector<Edge> AllEdges() const;

    /** True when @p order is a permutation with all deps left-to-right. */
    bool IsValidOrder(const std::vector<LayerId> &order) const;

    /** Construction order, which is topological by construction. */
    std::vector<LayerId> TopoOrder() const;

    /** Sanity checks: acyclicity, shape consistency. Dies on violation. */
    void Validate() const;

    /** Sum of OpsForRegion over full regions of all layers. */
    Ops TotalOps() const;

    /** Matrix-engine ops only (PE-array TOPS utilization denominator). */
    Ops TotalMatrixOps() const;

    Bytes TotalWeightBytes() const;

    /** Sum of all per-sample ofmap bytes times batch. */
    Bytes TotalFmapBytes() const;

  private:
    /** Per-producer consumer edges. */
    using ConsumerIndex = std::vector<std::vector<Edge>>;

    /**
     * Owner of the consumer index. The index is built on the first
     * Consumers() call and published with a compare-exchange, so
     * concurrent readers of one shared const Graph (the service's
     * graph cache hands one to concurrent requests) never race; the
     * losers of a publication race discard their copy. Building it in
     * AddLayer instead would put the work on every graph construction.
     * Mutations drop the index; copies start without one.
     */
    class ConsumerCache {
      public:
        ConsumerCache() = default;
        ConsumerCache(const ConsumerCache &) noexcept {}
        ConsumerCache &operator=(const ConsumerCache &other) noexcept
        {
            if (this != &other) Reset();
            return *this;
        }
        ~ConsumerCache() { Reset(); }

        const ConsumerIndex &Get(const Graph &graph) const;

        /** Drop the index. Callers mutate or destroy the graph, which
         *  is never concurrent with Get(), so no read-modify-write is
         *  needed. */
        void Reset()
        {
            if (const ConsumerIndex *index =
                    index_.load(std::memory_order_relaxed)) {
                delete index;
                index_.store(nullptr, std::memory_order_relaxed);
            }
        }

      private:
        mutable std::atomic<const ConsumerIndex *> index_{nullptr};
    };

    std::string name_;
    int batch_ = 1;
    std::vector<Layer> layers_;
    ConsumerCache consumers_;
};

}  // namespace soma

#endif  // SOMA_WORKLOAD_GRAPH_H
