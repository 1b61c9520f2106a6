// K-skyband queries: every object dominated by fewer than k others.
//
// The k-skyband generalizes the skyline (k = 1) and is the classic
// extension of the BBS machinery the paper builds on (Papadias et al.,
// SIGMOD 2003): a user who may discard up to k-1 options still finds a
// satisfactory object inside the k-skyband. Two implementations:
//  * naive — full network distance matrix, count dominators per object;
//  * LBC-style — LBC's discovery loop (LbcDiscovery, core/lbc.h) returns
//    candidates as incremental network NNs of a source query point, in
//    ascending source distance, so every potential dominator of a
//    candidate is resolved before it, ties aside. It skips an R-tree
//    region once k resolved objects dominate its optimistic vector.
//    There is no screen: every candidate is resolved to its full distance
//    vector, and a final recount over all of them fixes each dominator
//    count (and repairs tie order).
#ifndef MSQ_CORE_SKYBAND_H_
#define MSQ_CORE_SKYBAND_H_

#include "core/query.h"

namespace msq {

struct SkybandResult {
  // Entries dominated by fewer than k objects, with their dominator
  // counts, ascending by count then object id.
  struct Entry {
    ObjectId object = kInvalidObject;
    DistVector vector;
    std::size_t dominator_count = 0;
  };
  std::vector<Entry> entries;
  QueryStats stats;
};

// Exact k-skyband by full sweep. `k` >= 1; k = 1 is the skyline.
SkybandResult RunSkybandNaive(const Dataset& dataset,
                              const SkylineQuerySpec& spec, std::size_t k);

// Exact k-skyband by LBC's discovery loop. The R-tree region prune
// requires k points to jointly dominate a subtree before skipping it, so
// candidate sets grow with k.
SkybandResult RunSkybandLbc(const Dataset& dataset,
                            const SkylineQuerySpec& spec, std::size_t k);

// In-memory helper: indices of `vectors` dominated by fewer than k other
// vectors (non-finite vectors excluded), with counts.
std::vector<std::pair<std::size_t, std::size_t>> SkybandIndices(
    const std::vector<DistVector>& vectors, std::size_t k);

}  // namespace msq

#endif  // MSQ_CORE_SKYBAND_H_
