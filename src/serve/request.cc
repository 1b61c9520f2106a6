#include "serve/request.h"

#include <cmath>

#include "common/status.h"
#include "obs/plan.h"

namespace msq::serve {

namespace {

Status FieldError(const char* field, const std::string& what) {
  return Status::InvalidArgument(std::string("request field \"") + field +
                                 "\": " + what);
}

// Non-negative integral number fitting `max`; JSON numbers are doubles, so
// integrality is an explicit check (edge ids and budgets must not be
// silently rounded).
Status ParseIndex(const JsonValue& v, const char* field, double max,
                  double* out) {
  if (!v.is_number()) return FieldError(field, "expected a number");
  const double d = v.AsNumber();
  if (d < 0.0 || d > max) {
    return FieldError(field, "out of range [0, " + std::to_string(max) + "]");
  }
  if (d != std::floor(d)) return FieldError(field, "expected an integer");
  *out = d;
  return Status();
}

}  // namespace

const char* ServeOpName(ServeOp op) {
  switch (op) {
    case ServeOp::kQuery: return "query";
    case ServeOp::kUpdateEdge: return "update_edge";
    case ServeOp::kInsertObject: return "insert_object";
    case ServeOp::kDeleteObject: return "delete_object";
  }
  return "query";
}

StatusOr<ServeRequest> ParseServeRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  ServeRequest request;
  bool saw_algo = false;
  bool saw_sources = false;
  bool saw_query_extras = false;  // limits / k / lbc_source
  bool saw_edge = false;
  bool saw_length = false;
  bool saw_offset = false;
  bool saw_object = false;
  for (const auto& [key, value] : json.AsObject()) {
    if (key == "op") {
      if (!value.is_string()) return FieldError("op", "expected a string");
      const std::string& op = value.AsString();
      if (op == "update_edge") {
        request.op = ServeOp::kUpdateEdge;
      } else if (op == "insert_object") {
        request.op = ServeOp::kInsertObject;
      } else if (op == "delete_object") {
        request.op = ServeOp::kDeleteObject;
      } else {
        return FieldError("op", "unknown op \"" + op +
                                    "\" (expected one of: update_edge, "
                                    "insert_object, delete_object)");
      }
    } else if (key == "edge") {
      double edge_value = 0.0;
      Status status = ParseIndex(
          value, "edge", static_cast<double>(kInvalidEdge) - 1.0,
          &edge_value);
      if (!status.ok()) return status;
      request.edge = static_cast<EdgeId>(edge_value);
      saw_edge = true;
    } else if (key == "length") {
      if (!value.is_number()) {
        return FieldError("length", "expected a number");
      }
      request.length = value.AsNumber();
      if (request.length < 0.0 || request.length > kMaxEdgeLength) {
        return FieldError("length",
                          "out of range [0, " +
                              std::to_string(kMaxEdgeLength) + "]");
      }
      saw_length = true;
    } else if (key == "offset") {
      if (!value.is_number()) {
        return FieldError("offset", "expected a number");
      }
      request.offset = value.AsNumber();
      if (request.offset < 0.0) return FieldError("offset", "negative");
      saw_offset = true;
    } else if (key == "object") {
      double object_value = 0.0;
      Status status = ParseIndex(value, "object", 4294967294.0,
                                 &object_value);
      if (!status.ok()) return status;
      request.object = static_cast<ObjectId>(object_value);
      saw_object = true;
    } else if (key == "algo") {
      if (!value.is_string()) return FieldError("algo", "expected a string");
      if (!ParseAlgorithm(value.AsString(), &request.algorithm)) {
        return FieldError("algo", "unknown algorithm \"" + value.AsString() +
                                      "\" (expected one of: " +
                                      AlgorithmNames() + ")");
      }
      saw_algo = true;
    } else if (key == "sources") {
      if (!value.is_array()) {
        return FieldError("sources", "expected an array");
      }
      const JsonValue::Array& array = value.AsArray();
      if (array.empty()) return FieldError("sources", "must be non-empty");
      if (array.size() > kMaxSources) {
        return FieldError("sources",
                          "more than " + std::to_string(kMaxSources) +
                              " entries");
      }
      for (const JsonValue& entry : array) {
        if (!entry.is_object()) {
          return FieldError("sources", "each entry must be an object");
        }
        for (const auto& [entry_key, entry_value] : entry.AsObject()) {
          (void)entry_value;
          if (entry_key != "edge" && entry_key != "offset") {
            return FieldError("sources", "entry has unknown field \"" +
                                             entry_key + "\"");
          }
        }
        const JsonValue* edge = entry.Find("edge");
        const JsonValue* offset = entry.Find("offset");
        if (edge == nullptr) {
          return FieldError("sources", "entry missing \"edge\"");
        }
        double edge_value = 0.0;
        Status status =
            ParseIndex(*edge, "sources.edge",
                       static_cast<double>(kInvalidEdge) - 1.0, &edge_value);
        if (!status.ok()) return status;
        Location location;
        location.edge = static_cast<EdgeId>(edge_value);
        if (offset != nullptr) {
          if (!offset->is_number()) {
            return FieldError("sources.offset", "expected a number");
          }
          location.offset = offset->AsNumber();
          if (location.offset < 0.0) {
            return FieldError("sources.offset", "negative");
          }
        }
        request.sources.push_back(location);
      }
      saw_sources = true;
    } else if (key == "limits") {
      if (!value.is_object()) {
        return FieldError("limits", "expected an object");
      }
      saw_query_extras = true;
      for (const auto& [limit_key, limit_value] : value.AsObject()) {
        if (limit_key == "deadline_ms") {
          if (!limit_value.is_number()) {
            return FieldError("limits.deadline_ms", "expected a number");
          }
          request.deadline_ms = limit_value.AsNumber();
          if (request.deadline_ms <= 0.0 ||
              request.deadline_ms > kMaxDeadlineMs) {
            return FieldError("limits.deadline_ms",
                              "out of range (0, " +
                                  std::to_string(kMaxDeadlineMs) + "]");
          }
        } else if (limit_key == "page_budget") {
          double budget = 0.0;
          Status status =
              ParseIndex(limit_value, "limits.page_budget", 1e15, &budget);
          if (!status.ok()) return status;
          request.page_budget = static_cast<std::uint64_t>(budget);
        } else {
          return FieldError("limits",
                            "unknown field \"" + limit_key + "\"");
        }
      }
    } else if (key == "k") {
      double k = 0.0;
      Status status =
          ParseIndex(value, "k", static_cast<double>(kMaxK), &k);
      if (!status.ok()) return status;
      request.k = static_cast<std::size_t>(k);
      saw_query_extras = true;
    } else if (key == "lbc_source") {
      double index = 0.0;
      Status status = ParseIndex(value, "lbc_source",
                                 static_cast<double>(kMaxSources - 1),
                                 &index);
      if (!status.ok()) return status;
      request.lbc_source_index = static_cast<std::size_t>(index);
      saw_query_extras = true;
    } else if (key == "explain") {
      if (!value.is_bool()) {
        return FieldError("explain", "expected a boolean");
      }
      request.explain = value.AsBool();
      saw_query_extras = true;
    } else if (key == "traceparent") {
      if (!value.is_string()) {
        return FieldError("traceparent", "expected a string");
      }
      StatusOr<obs::TraceContext> ctx =
          obs::TraceContext::Parse(value.AsString());
      if (!ctx.ok()) return FieldError("traceparent", ctx.status().message());
      request.trace_context = ctx.value();
    } else if (key == "id") {
      if (!value.is_string()) return FieldError("id", "expected a string");
      if (value.AsString().size() > kMaxIdBytes) {
        return FieldError("id", "longer than " +
                                    std::to_string(kMaxIdBytes) + " bytes");
      }
      request.id = value.AsString();
    } else {
      return Status::InvalidArgument("request has unknown field \"" + key +
                                     "\"");
    }
  }
  // Cross-field validation: each op has exactly its own required fields,
  // so a half-query-half-mutation never silently executes one side.
  if (request.op == ServeOp::kQuery) {
    if (saw_edge || saw_length || saw_offset || saw_object) {
      return Status::InvalidArgument(
          "mutation field present without \"op\"");
    }
    if (!saw_algo) {
      return Status::InvalidArgument("request missing \"algo\"");
    }
    if (!saw_sources) {
      return Status::InvalidArgument("request missing \"sources\"");
    }
    if (request.lbc_source_index >= request.sources.size()) {
      return FieldError("lbc_source", "out of range for " +
                                          std::to_string(
                                              request.sources.size()) +
                                          " sources");
    }
    return request;
  }
  if (saw_algo || saw_sources || saw_query_extras) {
    return Status::InvalidArgument(
        std::string("query field not allowed with op \"") +
        ServeOpName(request.op) + "\"");
  }
  const char* op_name = ServeOpName(request.op);
  auto require = [&](bool saw, const char* field) {
    return saw ? Status()
               : Status::InvalidArgument(std::string("op \"") + op_name +
                                         "\" missing \"" + field + "\"");
  };
  auto forbid = [&](bool saw, const char* field) {
    return saw ? Status::InvalidArgument(std::string("op \"") + op_name +
                                         "\" does not take \"" + field +
                                         "\"")
               : Status();
  };
  Status status;
  switch (request.op) {
    case ServeOp::kUpdateEdge:
      if (!(status = require(saw_edge, "edge")).ok()) return status;
      if (!(status = require(saw_length, "length")).ok()) return status;
      if (!(status = forbid(saw_offset, "offset")).ok()) return status;
      if (!(status = forbid(saw_object, "object")).ok()) return status;
      break;
    case ServeOp::kInsertObject:
      if (!(status = require(saw_edge, "edge")).ok()) return status;
      if (!(status = forbid(saw_length, "length")).ok()) return status;
      if (!(status = forbid(saw_object, "object")).ok()) return status;
      break;
    case ServeOp::kDeleteObject:
      if (!(status = require(saw_object, "object")).ok()) return status;
      if (!(status = forbid(saw_edge, "edge")).ok()) return status;
      if (!(status = forbid(saw_length, "length")).ok()) return status;
      if (!(status = forbid(saw_offset, "offset")).ok()) return status;
      break;
    case ServeOp::kQuery:
      break;  // handled above
  }
  return request;
}

StatusOr<ServeRequest> ParseServeRequestText(std::string_view text) {
  StatusOr<JsonValue> json = ParseJson(text);
  if (!json.ok()) return json.status();
  return ParseServeRequest(json.value());
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kResourceExhausted:
      return 503;  // shed; oversized payloads map to 413 at the edge
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

std::string EncodeResultResponse(const ServeRequest& request,
                                 const SkylineResult& result,
                                 std::size_t returned, double queue_ms,
                                 double wall_ms) {
  std::string out = "{";
  if (!request.id.empty()) {
    out += "\"id\":";
    AppendJsonString(&out, request.id);
    out += ",";
  }
  out += "\"status\":\"OK\",\"truncated\":";
  out += result.truncated ? "true" : "false";
  if (result.truncated) {
    out += ",\"truncation_reason\":\"";
    out += StatusCodeName(result.truncation_reason);
    out += "\"";
  }
  out += ",\"skyline\":[";
  for (std::size_t i = 0; i < returned; ++i) {
    const SkylineEntry& entry = result.skyline[i];
    if (i > 0) out += ",";
    out += "{\"object\":";
    AppendJsonNumber(&out, static_cast<double>(entry.object));
    out += ",\"vector\":[";
    for (std::size_t d = 0; d < entry.vector.size(); ++d) {
      if (d > 0) out += ",";
      AppendJsonNumber(&out, entry.vector[d]);
    }
    out += "]}";
  }
  out += "],\"count\":";
  AppendJsonNumber(&out, static_cast<double>(returned));
  out += ",\"total\":";
  AppendJsonNumber(&out, static_cast<double>(result.skyline.size()));
  out += ",\"stats\":{\"queue_ms\":";
  AppendJsonNumber(&out, queue_ms);
  out += ",\"wall_ms\":";
  AppendJsonNumber(&out, wall_ms);
  out += ",\"network_pages\":";
  AppendJsonNumber(&out, static_cast<double>(result.stats.network_pages));
  out += ",\"index_pages\":";
  AppendJsonNumber(&out, static_cast<double>(result.stats.index_pages));
  out += ",\"settled_nodes\":";
  AppendJsonNumber(&out,
                   static_cast<double>(result.stats.counters.settled_nodes));
  out += "}";
  if (request.explain && result.plan.has_value()) {
    out += ",\"plan\":";
    out += obs::PlanJson(*result.plan);
  }
  out += "}";
  return out;
}

std::string EncodeErrorResponse(const std::string& id, StatusCode code,
                                const std::string& message,
                                double retry_after_ms) {
  std::string out = "{";
  if (!id.empty()) {
    out += "\"id\":";
    AppendJsonString(&out, id);
    out += ",";
  }
  out += "\"error\":{\"code\":\"";
  out += StatusCodeName(code);
  out += "\",\"http\":";
  AppendJsonNumber(&out, HttpStatusFor(code));
  out += ",\"message\":";
  AppendJsonString(&out, message);
  out += "}";
  if (retry_after_ms > 0.0) {
    out += ",\"retry_after_ms\":";
    AppendJsonNumber(&out, retry_after_ms);
  }
  out += "}";
  return out;
}

std::string EncodeMutationResponse(const ServeRequest& request,
                                   const MutationResult& result,
                                   double wall_ms) {
  std::string out = "{";
  if (!request.id.empty()) {
    out += "\"id\":";
    AppendJsonString(&out, request.id);
    out += ",";
  }
  out += "\"status\":\"OK\",\"op\":\"";
  out += ServeOpName(request.op);
  out += "\",\"data_epoch\":";
  AppendJsonNumber(&out, static_cast<double>(result.data_epoch));
  switch (request.op) {
    case ServeOp::kUpdateEdge:
      out += ",\"applied_length\":";
      AppendJsonNumber(&out, result.applied_length);
      break;
    case ServeOp::kInsertObject:
      out += ",\"object\":";
      AppendJsonNumber(&out, static_cast<double>(result.object));
      break;
    case ServeOp::kDeleteObject:
      out += ",\"removed\":";
      out += result.removed ? "true" : "false";
      break;
    case ServeOp::kQuery:
      break;
  }
  out += ",\"stats\":{\"wall_ms\":";
  AppendJsonNumber(&out, wall_ms);
  out += "}}";
  return out;
}

}  // namespace msq::serve
