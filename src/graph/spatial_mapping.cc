#include "graph/spatial_mapping.h"

#include <algorithm>
#include <optional>

#include "common/check.h"

namespace msq {
namespace {

// B+-tree payload for one middle-layer record.
struct PackedEdgeObject {
  ObjectId object;
  double dist_u;
  double dist_v;
};

BpTree::Key MakeKey(EdgeId edge, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(edge) << 32) | seq;
}

}  // namespace

SpatialMapping::SpatialMapping(const RoadNetwork* network,
                               BufferManager* buffer,
                               const std::vector<Location>& objects)
    : network_(network),
      locations_(objects),
      live_count_(objects.size()),
      index_(buffer) {
  MSQ_CHECK(network != nullptr);
  positions_.reserve(objects.size());
  for (const Location& loc : objects) {
    MSQ_CHECK_MSG(network->IsValidLocation(loc),
                  "object location (edge %u, offset %f) invalid", loc.edge,
                  loc.offset);
    positions_.push_back(network->LocationPosition(loc));
  }
  DeriveOccupancy();

  // Sort object ids by edge so keys are strictly increasing for BulkLoad.
  std::vector<ObjectId> order(objects.size());
  for (ObjectId i = 0; i < objects.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
    if (objects[a].edge != objects[b].edge) {
      return objects[a].edge < objects[b].edge;
    }
    return a < b;
  });

  std::vector<BpTree::Item> items;
  items.reserve(objects.size());
  EdgeId current_edge = kInvalidEdge;
  std::uint32_t seq = 0;
  for (const ObjectId id : order) {
    const Location& loc = objects[id];
    if (loc.edge != current_edge) {
      current_edge = loc.edge;
      seq = 0;
    }
    const auto [du, dv] = network->EndpointDistances(loc);
    items.emplace_back(MakeKey(loc.edge, seq++),
                       BpTreeValue::Pack(PackedEdgeObject{id, du, dv}));
  }
  index_.BulkLoad(items);
}

Status SpatialMapping::ObjectsOnEdge(EdgeId edge,
                                     std::vector<EdgeObject>* out) const {
  std::optional<ObjectId> unknown;
  Status status = index_.VisitRange(
      MakeKey(edge, 0), MakeKey(edge, 0xffffffffu),
      [&](BpTree::Key, const BpTreeValue& value) {
        const auto record = value.Unpack<PackedEdgeObject>();
        if (record.object >= locations_.size()) {
          if (!unknown.has_value()) unknown = record.object;
          return;
        }
        out->push_back(
            EdgeObject{record.object, record.dist_u, record.dist_v});
      });
  if (status.ok() && unknown.has_value()) {
    status = Status::Corruption("middle-layer record on edge " +
                                std::to_string(edge) +
                                " references unknown object " +
                                std::to_string(*unknown));
  }
  if (!status.ok()) out->clear();
  return status;
}

void SpatialMapping::DeriveOccupancy() {
  occupied_.assign(network_->edge_count(), false);
  for (const Location& loc : locations_) {
    if (loc.edge != kInvalidEdge) occupied_[loc.edge] = true;
  }
}

bool SpatialMapping::IsLive(ObjectId id) const {
  return id < locations_.size() && locations_[id].edge != kInvalidEdge;
}

StatusOr<ObjectId> SpatialMapping::InsertObject(const Location& loc) {
  MSQ_CHECK(network_->IsValidLocation(loc));
  // Next sequence on this edge: one past the highest existing key's low
  // word, so the "duplicate keys stored adjacent" range stays dense and
  // keys are never reused within an edge while its objects live.
  std::vector<BpTree::Item> items;
  if (Status status = index_.ScanRange(
          MakeKey(loc.edge, 0), MakeKey(loc.edge, 0xffffffffu), &items);
      !status.ok()) {
    return status;
  }
  std::uint32_t seq = 0;
  if (!items.empty()) {
    seq = static_cast<std::uint32_t>(items.back().first & 0xffffffffu) + 1;
  }
  const ObjectId id = static_cast<ObjectId>(locations_.size());
  const auto [du, dv] = network_->EndpointDistances(loc);
  try {
    index_.Insert(MakeKey(loc.edge, seq),
                  BpTreeValue::Pack(PackedEdgeObject{id, du, dv}));
  } catch (const StorageFault& fault) {
    return fault.status();
  }
  // The id is allocated only after the tree accepted the record, so a
  // failed insert leaves no half-registered object.
  locations_.push_back(loc);
  positions_.push_back(network_->LocationPosition(loc));
  occupied_[loc.edge] = true;
  ++live_count_;
  return id;
}

StatusOr<bool> SpatialMapping::DeleteObject(ObjectId id) {
  if (!IsLive(id)) return false;
  const Location loc = locations_[id];
  std::vector<BpTree::Item> items;
  if (Status status = index_.ScanRange(
          MakeKey(loc.edge, 0), MakeKey(loc.edge, 0xffffffffu), &items);
      !status.ok()) {
    return status;
  }
  for (const BpTree::Item& item : items) {
    if (item.second.Unpack<PackedEdgeObject>().object != id) continue;
    StatusOr<bool> removed = index_.Delete(item.first);
    if (!removed.ok()) return removed.status();
    MSQ_CHECK(*removed);
    locations_[id] = Location{kInvalidEdge, 0.0};
    if (items.size() == 1) occupied_[loc.edge] = false;
    --live_count_;
    return true;
  }
  return Status::Corruption("object " + std::to_string(id) +
                            " is live but missing from the middle layer");
}

Status SpatialMapping::RefreshEdgeObjects(EdgeId edge, double scale) {
  const Dist new_length = network_->EdgeAt(edge).length;
  // Phase 1 — infallible: rescale the authoritative location table first,
  // so a storage failure below always recovers to the *new* world through
  // RebuildIndex() instead of leaving a half-scaled mix.
  for (Location& loc : locations_) {
    if (loc.edge != edge) continue;
    loc.offset = std::clamp(loc.offset * scale, 0.0, new_length);
  }
  // Phase 2 — fallible: rewrite the middle-layer records in place.
  std::vector<BpTree::Item> items;
  if (Status status = index_.ScanRange(MakeKey(edge, 0),
                                       MakeKey(edge, 0xffffffffu), &items);
      !status.ok()) {
    return status;
  }
  for (const BpTree::Item& item : items) {
    const auto record = item.second.Unpack<PackedEdgeObject>();
    if (record.object >= locations_.size()) {
      return Status::Corruption("middle-layer record on edge " +
                                std::to_string(edge) +
                                " references unknown object " +
                                std::to_string(record.object));
    }
    const Location& loc = locations_[record.object];
    PackedEdgeObject updated_record{record.object, loc.offset,
                                    new_length - loc.offset};
    StatusOr<bool> updated =
        index_.UpdateValue(item.first, BpTreeValue::Pack(updated_record));
    if (!updated.ok()) return updated.status();
    MSQ_CHECK(*updated);
  }
  return Status();
}

Status SpatialMapping::RebuildIndex() {
  DeriveOccupancy();
  std::vector<ObjectId> order;
  order.reserve(live_count_);
  for (ObjectId id = 0; id < locations_.size(); ++id) {
    if (IsLive(id)) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
    if (locations_[a].edge != locations_[b].edge) {
      return locations_[a].edge < locations_[b].edge;
    }
    return a < b;
  });
  std::vector<BpTree::Item> items;
  items.reserve(order.size());
  EdgeId current_edge = kInvalidEdge;
  std::uint32_t seq = 0;
  for (const ObjectId id : order) {
    const Location& loc = locations_[id];
    if (loc.edge != current_edge) {
      current_edge = loc.edge;
      seq = 0;
    }
    const auto [du, dv] = network_->EndpointDistances(loc);
    items.emplace_back(MakeKey(loc.edge, seq++),
                       BpTreeValue::Pack(PackedEdgeObject{id, du, dv}));
  }
  try {
    index_.BulkLoad(items);
  } catch (const StorageFault& fault) {
    return fault.status();
  }
  return Status();
}

const Location& SpatialMapping::ObjectLocation(ObjectId id) const {
  MSQ_CHECK(id < locations_.size());
  return locations_[id];
}

Point SpatialMapping::ObjectPosition(ObjectId id) const {
  MSQ_CHECK(id < positions_.size());
  return positions_[id];
}

EdgeObjectMemo::EdgeObjectMemo(const SpatialMapping* mapping)
    : mapping_(mapping) {
  MSQ_CHECK(mapping != nullptr);
}

StatusOr<std::span<const EdgeObject>> EdgeObjectMemo::Get(EdgeId edge) {
  if (slot_.empty()) slot_.assign(mapping_->network().edge_count(), 0);
  MSQ_DCHECK(edge < slot_.size());
  std::uint32_t& slot = slot_[edge];
  if (slot == 0) {
    scratch_.clear();
    if (Status status = mapping_->ObjectsOnEdge(edge, &scratch_);
        !status.ok()) {
      return status;
    }
    ranges_.push_back(Range{static_cast<std::uint32_t>(records_.size()),
                            static_cast<std::uint32_t>(scratch_.size())});
    records_.insert(records_.end(), scratch_.begin(), scratch_.end());
    slot = static_cast<std::uint32_t>(ranges_.size());
  }
  const Range& range = ranges_[slot - 1];
  return std::span<const EdgeObject>(records_.data() + range.begin,
                                     range.count);
}

}  // namespace msq
