/**
 * @file
 * The Buffer Allocator (Sec. V-B): the outermost iteration that divides
 * the GBUF between the two competing stages. Iteration 0 gives stage 1
 * the whole buffer; each following iteration shrinks the stage-1 budget
 * by kAllocShrinkFrac of the first iteration's peak usage (BufferMax),
 * leaving headroom for the DLSA stage's prefetching. Stops when two
 * (kAllocPatience) consecutive iterations fail to improve the best
 * overall cost.
 */
#ifndef SOMA_SEARCH_BUFFER_ALLOCATOR_H
#define SOMA_SEARCH_BUFFER_ALLOCATOR_H

#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"

namespace soma {

/** Share of BufferMax each outer iteration removes from the stage-1
 *  budget. */
constexpr double kAllocShrinkFrac = 0.10;
/** The allocator stops after this many consecutive non-improving
 *  outer iterations. */
constexpr int kAllocPatience = 2;

/** Outer-loop budget. */
struct BufferAllocatorOptions {
    int max_iterations = 6;  ///< hard cap on outer iterations
};

/**
 * Run the Buffer-Allocator-wrapped two-stage search: every stage reads
 * its budget, the objective and the driver from @p opts and draws from
 * @p rng. `outer_iterations` counts the iterations whose stage 1 found
 * a valid scheme, and `stats` folds both stages' walks.
 */
SearchResult RunBufferAllocatedSearch(const Graph &graph,
                                      const HardwareConfig &hw,
                                      const SomaOptions &opts, Rng &rng);

}  // namespace soma

#endif  // SOMA_SEARCH_BUFFER_ALLOCATOR_H
