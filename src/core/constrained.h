// Range-constrained multi-source skyline: the skyline over only those
// objects within network distance `radius` of EVERY query point.
//
// The natural location-based-services variant ("hotels at most 2 km from
// each of us, Pareto-optimal among those"). Since any dominator of an
// in-range object is component-wise closer and therefore in range itself,
// the result equals the in-range subset of the unconstrained skyline —
// but computing it directly is much cheaper: the radius caps the search
// region of every wavefront and plb probe.
//
// The LBC variant is LBC with a radius (RunLbcBody, core/lbc.h), so it
// shares LBC's screen, cache reuse, QueryLimits and phase spans. The
// constraint comes almost for free from the path distance lower bounds:
// a candidate is discarded the moment any bound exceeds the radius, a
// source candidate farther than the radius is dropped, and R-tree subtrees
// farther (even in Euclidean distance) than the radius from some query
// point are never fetched.
#ifndef MSQ_CORE_CONSTRAINED_H_
#define MSQ_CORE_CONSTRAINED_H_

#include "core/query.h"

namespace msq {

// Exact constrained skyline by full sweep.
SkylineResult RunConstrainedSkylineNaive(const Dataset& dataset,
                                         const SkylineQuerySpec& spec,
                                         Dist radius);

// Exact constrained skyline: LBC with a radius. Like RunLbc, a QueryLimits
// cut-off returns a truncated confirmed prefix and a storage fault a clean
// error status; an invalid spec or a negative radius aborts.
SkylineResult RunConstrainedSkylineLbc(const Dataset& dataset,
                                       const SkylineQuerySpec& spec,
                                       Dist radius);

}  // namespace msq

#endif  // MSQ_CORE_CONSTRAINED_H_
