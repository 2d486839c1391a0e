// urankd wire protocol, version 1 (full grammar in docs/SERVING.md).
//
// Newline-delimited JSON: each request is one object on one line, each
// response is one object on one line, responses carry the request's `id`
// back so clients may pipeline. The query payload is a direct
// serialization of urank::QueryRequest — the wire surface and the
// in-process API are the same struct, which is the point of the PR-7 API
// redesign: a request parsed off a socket and a request built in code are
// indistinguishable by the time they reach QueryEngine::Run.
//
// Request envelope (members beyond the envelope depend on `type`):
//   {"v":1, "type":"query"|"mutate"|"admin/load"|"admin/relations"|
//    "metrics"|"ping", "id":<number|string>, ...}
//
// query:          {"relation":NAME, "semantics":NAME, "k":K,
//                  ["phi":P], ["threshold":T], ["ties":NAME],
//                  ["deadline_ms":D], ["cache":"default"|"bypass"],
//                  ["threads":T], ["min_epoch":E], ["prune":BOOL]}
//   -> {"v":1,"id":ID,"status":"ok","code":0,"relation":NAME,
//       "epoch":E,"cache":"hit"|"miss"|"bypass","ids":[...],
//       "statistics":[...],"stats":{...}}
//   "epoch" is the epoch the answer was computed against; "min_epoch"
//   demands at least that epoch (kEpochNotAvailable otherwise) — the
//   read-your-writes handshake after a mutate. "prune":true is
//   QueryRequest::prune: the exact early-terminating top-k for
//   tuple-level expected-rank, median-rank, quantile-rank, pt-k,
//   global-topk and u-kranks and attribute-level median-rank and
//   quantile-rank (ignored elsewhere); the answer is identical, and
//   "stats" reports tuples_scanned and prune_stop_position.
//
// mutate:         {"relation":NAME, "ops":[OP, ...]} with
//   OP = {"op":"insert"|"update",
//         "tuple":{"id":N,"score":S,"prob":P} | {"id":N,"pdf":[
//                  {"value":V,"prob":P}, ...]}, ["rule":K]}
//      | {"op":"delete", "id":N}
//   The tuple payload shape must match the relation's model ("score"/
//   "prob" for tuple-level, "pdf" for attribute-level); "rule" is the
//   tuple-level exclusion-rule key (>= 0 groups mutually exclusive
//   tuples, -1/absent means independent). Ops apply atomically —
//   all-or-nothing — and one epoch is published per request.
//   -> {"v":1,"id":ID,"status":"ok","code":0,"relation":NAME,"epoch":E,
//       "applied":COUNT,"tuples":N}
//
// admin/load:     {"name":NAME, "model":"attr"|"tuple",
//                  "path":CSV_PATH | "data":CSV_TEXT}
//   -> {"v":1,"id":ID,"status":"ok","code":0,"name":NAME,"epoch":E,
//       "tuples":N}
//
// admin/relations -> {"v":1,"id":ID,"status":"ok","code":0,
//                     "relations":[{"name":...,"model":...,"epoch":...,
//                                   "tuples":...}, ...]}
//
// metrics         -> {"v":1,"id":ID,"status":"ok","code":0,
//                     "content_type":"text/plain; version=0.0.4",
//                     "body":<Prometheus text page>}
//
// ping            -> {"v":1,"id":ID,"status":"ok","code":0}
//
// Errors (any type): {"v":1,"id":ID,"status":<status name>,
//                     "code":<wire value>,"error":<message>}
// with status/code from the QueryStatusCode taxonomy
// (core/engine/query_engine.h) — names via ToString, numeric values via
// WireValue; both are stable.
//
// This header is transport-agnostic: parsing and rendering only. Requests
// that fail to parse still produce a WireRequest (type kInvalid) carrying
// the best-effort `id`, so the error response can be correlated.

#ifndef URANK_SERVE_PROTOCOL_H_
#define URANK_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include <vector>

#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "serve/json.h"

namespace urank {
namespace serve {

// Protocol version spoken by this build. Requests must carry "v":1;
// responses always do.
inline constexpr int kWireVersion = 1;

// Relation model vocabulary for admin/load ("attr" | "tuple").
enum class WireModel { kAttr, kTuple };

const char* ToString(WireModel model);
bool FromString(std::string_view name, WireModel* out);

// One parsed mutate op. The payload is model-agnostic at parse time (the
// parser does not know the relation's model): a tuple-level payload fills
// `tuple`/`rule_key`, an attribute-level payload fills `attr_tuple`; the
// server rejects a shape mismatch at execution.
struct WireMutation {
  using Op = MutationOp;
  Op op = Op::kInsert;
  // kDelete target.
  int id = 0;
  // kInsert/kUpdate, tuple-level payload ("score"/"prob").
  TLTuple tuple;
  long long rule_key = -1;
  // kInsert/kUpdate, attribute-level payload ("pdf").
  AttrTuple attr_tuple;
  bool has_pdf = false;
};

struct WireRequest {
  enum class Type {
    kInvalid,  // parse failed; `error` holds the reason
    kQuery,
    kMutate,
    kAdminLoad,
    kAdminRelations,
    kMetrics,
    kPing,
  };

  Type type = Type::kInvalid;
  // Echoed verbatim into the response ("id" member; null when absent).
  JsonValue id;
  // kInvalid only: what was wrong with the line.
  std::string error;

  // kQuery / kMutate.
  std::string relation;
  QueryRequest query;

  // kMutate.
  std::vector<WireMutation> mutations;

  // kAdminLoad: exactly one of `path` / `inline_data` is non-empty.
  std::string name;
  WireModel model = WireModel::kTuple;
  std::string path;
  std::string inline_data;
  bool has_inline_data = false;
};

// Parses one request line. Returns false when the line is not an
// acceptable protocol message — `*out` is then a kInvalid request whose
// `error` explains why and whose `id` is recovered when possible, ready
// to be passed to RenderErrorResponse with kInvalidRequest.
bool ParseRequest(std::string_view line, WireRequest* out);

// QueryRequest <-> JSON payload members, shared by client (load_gen) and
// server. FromJson validates vocabulary (semantics, ties, cache) and
// ranges it can check without an engine; engine-level validation stays in
// QueryEngine::Validate.
void QueryRequestToJson(const std::string& relation, const QueryRequest& query,
                        JsonValue* object);
bool QueryRequestFromJson(const JsonValue& object, std::string* relation,
                          QueryRequest* query, std::string* error);

// Response rendering. Every renderer returns one compact JSON line
// WITHOUT the trailing newline (transports append it).

// How the result cache treated a query (reported in the response).
enum class CacheOutcome { kHit, kMiss, kBypass };

const char* ToString(CacheOutcome outcome);

// Per-request serving timings reported in the response "stats" object
// alongside the engine's QueryStats. serve_ms is the server-side
// handle latency (admission to response rendering) — the number the
// warm-cache acceptance gate is measured on, because it excludes
// transport RTT.
struct ServeTimings {
  double serve_ms = 0.0;
  double queue_ms = 0.0;
};

std::string RenderQueryResponse(const JsonValue& id,
                                const std::string& relation,
                                std::uint64_t epoch, CacheOutcome cache,
                                const RankingAnswer& answer,
                                const QueryStats& stats,
                                const ServeTimings& timings);

std::string RenderLoadResponse(const JsonValue& id, const std::string& name,
                               std::uint64_t epoch, long long tuples);

std::string RenderMutateResponse(const JsonValue& id,
                                 const std::string& relation,
                                 std::uint64_t epoch, long long applied,
                                 long long tuples);

// `relations_json` must be an array built by the caller (registry order).
std::string RenderRelationsResponse(const JsonValue& id,
                                    JsonValue relations_json);

std::string RenderMetricsResponse(const JsonValue& id,
                                  const std::string& body);

std::string RenderPingResponse(const JsonValue& id);

std::string RenderErrorResponse(const JsonValue& id, QueryStatusCode code,
                                const std::string& message);

// Client-side helper (load_gen, tests): extracts (status code, cache
// outcome, serve_ms) from a response line. Returns false when the line is
// not a well-formed response.
struct ParsedResponse {
  QueryStatusCode code = QueryStatusCode::kOk;
  CacheOutcome cache = CacheOutcome::kBypass;
  bool has_cache = false;
  double serve_ms = 0.0;
  std::string error;
  JsonValue body;
};

bool ParseResponse(std::string_view line, ParsedResponse* out);

}  // namespace serve
}  // namespace urank

#endif  // URANK_SERVE_PROTOCOL_H_
