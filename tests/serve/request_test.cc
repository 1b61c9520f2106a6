// serve::ParseServeRequest — the strict request schema over the JSON
// parser: unknown fields rejected at every level, integrality and range
// enforced, and the response encoders emit JSON the parser accepts.
#include <string>

#include <gtest/gtest.h>

#include "serve/json.h"
#include "serve/request.h"

namespace msq::serve {
namespace {

StatusOr<ServeRequest> P(const std::string& text) {
  return ParseServeRequestText(text);
}

TEST(RequestTest, MinimalRequest) {
  const ServeRequest request = P("{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}]}").value();
  EXPECT_EQ(request.algorithm, Algorithm::kLbc);
  ASSERT_EQ(request.sources.size(), 1u);
  EXPECT_EQ(request.sources[0].edge, 0u);
  EXPECT_DOUBLE_EQ(request.sources[0].offset, 0.0);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 0.0);
  EXPECT_EQ(request.page_budget, 0u);
  EXPECT_EQ(request.k, 0u);
  EXPECT_TRUE(request.id.empty());
}

TEST(RequestTest, FullRequest) {
  const ServeRequest request =
      P("{\"algo\":\"ce\",\"sources\":[{\"edge\":3,\"offset\":0.5},"
        "{\"edge\":9,\"offset\":0.25}],\"lbc_source\":1,"
        "\"limits\":{\"deadline_ms\":250,\"page_budget\":1000},"
        "\"k\":16,\"id\":\"req-1\"}")
          .value();
  EXPECT_EQ(request.algorithm, Algorithm::kCe);
  ASSERT_EQ(request.sources.size(), 2u);
  EXPECT_EQ(request.sources[1].edge, 9u);
  EXPECT_DOUBLE_EQ(request.sources[1].offset, 0.25);
  EXPECT_EQ(request.lbc_source_index, 1u);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 250.0);
  EXPECT_EQ(request.page_budget, 1000u);
  EXPECT_EQ(request.k, 16u);
  EXPECT_EQ(request.id, "req-1");
}

TEST(RequestTest, AllAlgorithmsParse) {
  const struct {
    const char* name;
    Algorithm algorithm;
  } cases[] = {{"naive", Algorithm::kNaive},
               {"ce", Algorithm::kCe},
               {"edc", Algorithm::kEdc},
               {"lbc", Algorithm::kLbc}};
  for (const auto& c : cases) {
    const std::string text = std::string("{\"algo\":\"") + c.name +
                             "\",\"sources\":[{\"edge\":0}]}";
    EXPECT_EQ(P(text).value().algorithm, c.algorithm) << c.name;
  }
}

TEST(RequestTest, Rejections) {
  const char* cases[] = {
      "{}",                                           // missing everything
      "{\"algo\":\"lbc\"}",                           // missing sources
      "{\"sources\":[{\"edge\":0}]}",                 // missing algo
      "{\"algo\":\"lbc\",\"sources\":[]}",            // empty sources
      "{\"algo\":\"zzz\",\"sources\":[{\"edge\":0}]}",    // unknown algo
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],\"x\":1}",  // unknown field
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0,\"y\":1}]}",  // unknown entry field
      "{\"algo\":\"lbc\",\"sources\":[{\"offset\":1}]}",        // missing edge
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":1.5}]}",        // fractional edge
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":-1}]}",         // negative edge
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0,\"offset\":-0.1}]}",
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],\"k\":1.5}",
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],\"k\":4097}",  // > kMaxK
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],"
      "\"limits\":{\"deadline_ms\":0}}",                          // zero deadline
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],"
      "\"limits\":{\"deadline_ms\":-5}}",
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],"
      "\"limits\":{\"deadline_ms\":600001}}",                     // > max
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],"
      "\"limits\":{\"nope\":1}}",                                 // unknown limit
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],\"lbc_source\":1}",
      "[\"algo\",\"lbc\"]",                                       // not an object
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}]",             // bad JSON
  };
  for (const char* text : cases) {
    const StatusOr<ServeRequest> result = P(text);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << text;
    }
  }
}

TEST(RequestTest, SourceCountCap) {
  std::string many = "{\"algo\":\"lbc\",\"sources\":[";
  for (std::size_t i = 0; i <= kMaxSources; ++i) {
    if (i > 0) many += ",";
    many += "{\"edge\":0}";
  }
  many += "]}";
  EXPECT_FALSE(P(many).ok());  // kMaxSources + 1 entries
}

TEST(RequestTest, IdLengthCap) {
  const std::string id(kMaxIdBytes + 1, 'x');
  EXPECT_FALSE(
      P("{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],\"id\":\"" + id +
        "\"}")
          .ok());
}

TEST(RequestTest, HttpStatusMapping) {
  EXPECT_EQ(HttpStatusFor(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusFor(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusFor(StatusCode::kDeadlineExceeded), 408);
  EXPECT_EQ(HttpStatusFor(StatusCode::kResourceExhausted), 503);
  EXPECT_EQ(HttpStatusFor(StatusCode::kUnavailable), 503);
  EXPECT_EQ(HttpStatusFor(StatusCode::kIoError), 500);
  EXPECT_EQ(HttpStatusFor(StatusCode::kCorruption), 500);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInternal), 500);
}

TEST(RequestTest, ResultResponseRoundTripsThroughParser) {
  ServeRequest request;
  request.id = "round \"trip\"";
  SkylineResult result;
  result.truncated = true;
  result.truncation_reason = StatusCode::kDeadlineExceeded;
  SkylineEntry entry;
  entry.object = 7;
  entry.vector = {0.125, 2.5};
  result.skyline.push_back(entry);
  result.stats.network_pages = 3;
  result.stats.index_pages = 1;
  result.stats.counters.settled_nodes = 42;

  const std::string body =
      EncodeResultResponse(request, result, /*returned=*/1,
                           /*queue_ms=*/0.5, /*wall_ms=*/1.5);
  const JsonValue json = ParseJson(body).value();
  EXPECT_EQ(json.Find("id")->AsString(), "round \"trip\"");
  EXPECT_EQ(json.Find("status")->AsString(), "OK");
  EXPECT_TRUE(json.Find("truncated")->AsBool());
  EXPECT_EQ(json.Find("truncation_reason")->AsString(),
            "DEADLINE_EXCEEDED");
  ASSERT_EQ(json.Find("skyline")->AsArray().size(), 1u);
  const JsonValue& first = json.Find("skyline")->AsArray()[0];
  EXPECT_DOUBLE_EQ(first.Find("object")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(first.Find("vector")->AsArray()[0].AsNumber(), 0.125);
  EXPECT_DOUBLE_EQ(json.Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(json.Find("total")->AsNumber(), 1.0);
  const JsonValue* stats = json.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->Find("network_pages")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(stats->Find("settled_nodes")->AsNumber(), 42.0);
}

TEST(RequestTest, ErrorResponseRoundTripsThroughParser) {
  const std::string body = EncodeErrorResponse(
      "id-1", StatusCode::kResourceExhausted, "overloaded",
      /*retry_after_ms=*/75.0);
  const JsonValue json = ParseJson(body).value();
  EXPECT_EQ(json.Find("id")->AsString(), "id-1");
  const JsonValue* error = json.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->AsString(), "RESOURCE_EXHAUSTED");
  EXPECT_DOUBLE_EQ(error->Find("http")->AsNumber(), 503.0);
  EXPECT_EQ(error->Find("message")->AsString(), "overloaded");
  EXPECT_DOUBLE_EQ(json.Find("retry_after_ms")->AsNumber(), 75.0);
}

TEST(RequestTest, ParsesUpdateEdgeMutation) {
  const ServeRequest request =
      P("{\"op\":\"update_edge\",\"edge\":3,\"length\":12.5,"
        "\"id\":\"m-1\"}")
          .value();
  EXPECT_EQ(request.op, ServeOp::kUpdateEdge);
  EXPECT_EQ(request.edge, 3u);
  EXPECT_DOUBLE_EQ(request.length, 12.5);
  EXPECT_EQ(request.id, "m-1");
  // length 0 is the explicit "reset to Euclidean" sentinel, not an error.
  EXPECT_DOUBLE_EQ(
      P("{\"op\":\"update_edge\",\"edge\":0,\"length\":0}")
          .value()
          .length,
      0.0);
}

TEST(RequestTest, ParsesInsertObjectMutation) {
  const ServeRequest request =
      P("{\"op\":\"insert_object\",\"edge\":7,\"offset\":0.25}")
          .value();
  EXPECT_EQ(request.op, ServeOp::kInsertObject);
  EXPECT_EQ(request.edge, 7u);
  EXPECT_DOUBLE_EQ(request.offset, 0.25);
  // offset defaults to 0 (the edge head).
  EXPECT_DOUBLE_EQ(
      P("{\"op\":\"insert_object\",\"edge\":7}").value().offset, 0.0);
}

TEST(RequestTest, ParsesDeleteObjectMutation) {
  const ServeRequest request =
      P("{\"op\":\"delete_object\",\"object\":42}").value();
  EXPECT_EQ(request.op, ServeOp::kDeleteObject);
  EXPECT_EQ(request.object, 42u);
}

TEST(RequestTest, MutationRejections) {
  const char* cases[] = {
      // op must be a known string.
      "{\"op\":\"compact\",\"edge\":0}",
      "{\"op\":7,\"edge\":0}",
      // Missing required fields per op.
      "{\"op\":\"update_edge\",\"edge\":0}",           // no length
      "{\"op\":\"update_edge\",\"length\":1}",         // no edge
      "{\"op\":\"insert_object\",\"offset\":0.5}",     // no edge
      "{\"op\":\"delete_object\"}",                      // no object
      // Forbidden fields per op.
      "{\"op\":\"update_edge\",\"edge\":0,\"length\":1,"
      "\"offset\":0.5}",
      "{\"op\":\"update_edge\",\"edge\":0,\"length\":1,"
      "\"object\":1}",
      "{\"op\":\"insert_object\",\"edge\":0,\"length\":1}",
      "{\"op\":\"delete_object\",\"object\":1,\"edge\":0}",
      "{\"op\":\"delete_object\",\"object\":1,\"offset\":0.5}",
      // Half-query-half-mutation must never execute either side.
      "{\"op\":\"update_edge\",\"edge\":0,\"length\":1,"
      "\"algo\":\"lbc\"}",
      "{\"op\":\"update_edge\",\"edge\":0,\"length\":1,"
      "\"sources\":[{\"edge\":0}]}",
      "{\"op\":\"delete_object\",\"object\":1,\"k\":4}",
      "{\"op\":\"insert_object\",\"edge\":0,"
      "\"limits\":{\"deadline_ms\":100}}",
      // Mutation fields without an op: not a valid query either.
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],"
      "\"length\":5}",
      "{\"algo\":\"lbc\",\"sources\":[{\"edge\":0}],"
      "\"object\":1}",
      // Range checks.
      "{\"op\":\"update_edge\",\"edge\":0,\"length\":-1}",
      "{\"op\":\"update_edge\",\"edge\":1.5,\"length\":1}",
      "{\"op\":\"insert_object\",\"edge\":0,\"offset\":-0.1}",
      "{\"op\":\"delete_object\",\"object\":-1}",
      "{\"op\":\"delete_object\",\"object\":1.5}",
  };
  for (const char* text : cases) {
    const StatusOr<ServeRequest> result = P(text);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << text;
    }
  }
}

TEST(RequestTest, MutationResponseRoundTripsThroughParser) {
  ServeRequest request;
  request.op = ServeOp::kInsertObject;
  request.id = "mut-7";
  MutationResult result;
  result.data_epoch = 12;
  result.object = 99;
  const std::string body =
      EncodeMutationResponse(request, result, /*wall_ms=*/2.5);
  const JsonValue json = ParseJson(body).value();
  EXPECT_EQ(json.Find("id")->AsString(), "mut-7");
  EXPECT_EQ(json.Find("status")->AsString(), "OK");
  EXPECT_EQ(json.Find("op")->AsString(), "insert_object");
  EXPECT_DOUBLE_EQ(json.Find("data_epoch")->AsNumber(), 12.0);
  EXPECT_DOUBLE_EQ(json.Find("object")->AsNumber(), 99.0);
  EXPECT_DOUBLE_EQ(json.Find("stats")->Find("wall_ms")->AsNumber(), 2.5);

  request.op = ServeOp::kDeleteObject;
  result.removed = true;
  const JsonValue del =
      ParseJson(EncodeMutationResponse(request, result, 0.5)).value();
  EXPECT_EQ(del.Find("op")->AsString(), "delete_object");
  EXPECT_TRUE(del.Find("removed")->AsBool());

  request.op = ServeOp::kUpdateEdge;
  result.applied_length = 7.75;
  const JsonValue upd =
      ParseJson(EncodeMutationResponse(request, result, 0.5)).value();
  EXPECT_EQ(upd.Find("op")->AsString(), "update_edge");
  EXPECT_DOUBLE_EQ(upd.Find("applied_length")->AsNumber(), 7.75);
}

}  // namespace
}  // namespace msq::serve
