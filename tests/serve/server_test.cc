// End-to-end tests of the urankd server core (serve/server.h) and the
// TCP transport: request handling against a live engine, result-cache
// hit/miss/bypass behavior through the wire surface, epoch bumping on
// reload, deterministic overload shedding and deadline expiry (workers ==
// 0 keeps every job queued until Drain), graceful-drain semantics,
// attribute-level mutates against a shadow store, and the TCP transport:
// a loopback round trip, the request-line cap and connection reaping.

#include "serve/server.h"

#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/tcp.h"

namespace urank {
namespace serve {
namespace {

TupleRelation SmallRelation() {
  return TupleRelation::Independent({
      {1, 100.0, 0.9},
      {2, 90.0, 0.8},
      {3, 80.0, 0.5},
      {4, 70.0, 0.5},
      {5, 60.0, 0.3},
  });
}

AttrRelation SmallAttrRelation() {
  return AttrRelation({
      {1, {{100.0, 0.5}, {40.0, 0.5}}},
      {2, {{90.0, 1.0}}},
      {3, {{80.0, 0.25}, {70.0, 0.75}}},
      {4, {{50.0, 1.0}}},
  });
}

ServerOptions InlineOptions() {
  ServerOptions options;
  options.workers = 1;
  return options;
}

ParsedResponse Call(Server* server, const std::string& line) {
  ParsedResponse response;
  const std::string response_line = server->HandleLine(line);
  EXPECT_TRUE(ParseResponse(response_line, &response)) << response_line;
  return response;
}

constexpr char kQueryLine[] =
    R"({"v":1,"type":"query","id":1,"relation":"rel",)"
    R"("semantics":"expected-rank","k":3})";

TEST(Server, AnswersMatchADirectEngineRun) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());

  const ParsedResponse response = Call(&server, kQueryLine);
  ASSERT_EQ(response.code, QueryStatusCode::kOk);

  QueryEngine engine(SmallRelation());
  QueryRequest request;
  request.options.k = 3;
  const QueryResult direct = engine.Run(request);
  ASSERT_TRUE(direct.status.ok());

  const JsonValue* ids = response.body.Find("ids");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->array_items().size(), direct.answer.ids.size());
  for (std::size_t i = 0; i < direct.answer.ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(ids->array_items()[i].number_value(),
                     direct.answer.ids[i]);
  }
  const JsonValue* statistics = response.body.Find("statistics");
  ASSERT_NE(statistics, nullptr);
  for (std::size_t i = 0; i < direct.answer.statistics.size(); ++i) {
    EXPECT_DOUBLE_EQ(statistics->array_items()[i].number_value(),
                     direct.answer.statistics[i]);
  }
}

std::string MutateLine(int id, const std::string& relation,
                       const std::string& op) {
  return R"({"v":1,"type":"mutate","id":)" + std::to_string(id) +
         R"(,"relation":")" + relation + R"(","ops":[)" + op + "]}";
}

TEST(Server, AttrMutateBumpsEpochAndMatchesAShadowStore) {
  Server server(InlineOptions());
  server.AddRelation("attr", SmallAttrRelation());
  ASSERT_NE(server.MutableStore<MutableAttrRelation>("attr"), nullptr);
  EXPECT_EQ(server.MutableStore<MutableTupleRelation>("attr"), nullptr);
  auto shadow = std::make_shared<MutableAttrRelation>(SmallAttrRelation());
  const QueryEngine shadow_engine(shadow);

  struct Step {
    std::string wire_op;
    AttrMutation op;
  };
  std::vector<Step> steps(3);
  steps[0].wire_op =
      R"({"op":"insert","tuple":{"id":6,"pdf":[{"value":95,"prob":0.25},)"
      R"({"value":20,"prob":0.75}]}})";
  steps[0].op.op = MutationOp::kInsert;
  steps[0].op.tuple = AttrTuple{6, {{95.0, 0.25}, {20.0, 0.75}}};
  steps[1].wire_op =
      R"({"op":"update","tuple":{"id":1,"pdf":[{"value":10,"prob":1}]}})";
  steps[1].op.op = MutationOp::kUpdate;
  steps[1].op.tuple = AttrTuple{1, {{10.0, 1.0}}};
  steps[2].wire_op = R"({"op":"delete","id":2})";
  steps[2].op.op = MutationOp::kDelete;
  steps[2].op.id = 2;

  for (std::size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE(steps[i].wire_op);
    const ParsedResponse mutated = Call(
        &server, MutateLine(static_cast<int>(i), "attr", steps[i].wire_op));
    ASSERT_EQ(mutated.code, QueryStatusCode::kOk) << mutated.error;
    const double epoch = static_cast<double>(i) + 2.0;
    EXPECT_EQ(mutated.body.Find("epoch")->number_value(), epoch);

    std::string error;
    ASSERT_TRUE(shadow->Apply({steps[i].op}, &error)) << error;
    shadow->Publish();
    EXPECT_EQ(mutated.body.Find("tuples")->number_value(),
              static_cast<double>(shadow->live_size()));

    const ParsedResponse answered = Call(
        &server, R"({"v":1,"type":"query","id":9,"relation":"attr",)"
                 R"("semantics":"expected-rank","k":3})");
    ASSERT_EQ(answered.code, QueryStatusCode::kOk) << answered.error;
    EXPECT_EQ(answered.body.Find("epoch")->number_value(), epoch);
    QueryRequest request;
    request.options.k = 3;
    const QueryResult direct = shadow_engine.Run(request);
    ASSERT_TRUE(direct.status.ok());
    const auto& ids = answered.body.Find("ids")->array_items();
    const auto& statistics =
        answered.body.Find("statistics")->array_items();
    ASSERT_EQ(ids.size(), direct.answer.ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(ids[j].number_value(), direct.answer.ids[j]);
      EXPECT_DOUBLE_EQ(statistics[j].number_value(),
                       direct.answer.statistics[j]);
    }
  }
}

TEST(Server, AttrMutateWithoutPdfIsAnInvalidRequest) {
  Server server(InlineOptions());
  server.AddRelation("attr", SmallAttrRelation());
  const ParsedResponse response = Call(
      &server,
      MutateLine(1, "attr",
                 R"({"op":"insert","tuple":{"id":9,"score":1,"prob":0.5}})"));
  EXPECT_EQ(response.code, QueryStatusCode::kInvalidRequest);
  EXPECT_EQ(response.error,
            "ops[0]: relation \"attr\" is attribute-level; op needs a "
            "\"pdf\" payload");
  ASSERT_EQ(server.Relations().size(), 1u);
  EXPECT_EQ(server.Relations()[0].epoch, 1u);
  EXPECT_EQ(server.Relations()[0].tuples, 4);
}

TEST(Server, CacheHitMissBypassThroughTheWireSurface) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());

  // First run computes, second hits.
  EXPECT_EQ(Call(&server, kQueryLine).cache, CacheOutcome::kMiss);
  EXPECT_EQ(Call(&server, kQueryLine).cache, CacheOutcome::kHit);

  // Bypass performs neither lookup (a hot entry exists and is ignored)
  // nor insert (shown below for a fresh key).
  const std::string bypass_line =
      R"({"v":1,"type":"query","id":2,"relation":"rel",)"
      R"("semantics":"expected-rank","k":3,"cache":"bypass"})";
  const ResultCacheStats before = server.result_cache().stats();
  EXPECT_EQ(Call(&server, bypass_line).cache, CacheOutcome::kBypass);
  const ResultCacheStats after = server.result_cache().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.insertions, before.insertions);

  // A bypass run of a NEW query must not seed the cache: the following
  // default-mode run still misses.
  const std::string fresh_bypass =
      R"({"v":1,"type":"query","id":3,"relation":"rel",)"
      R"("semantics":"expected-rank","k":2,"cache":"bypass"})";
  const std::string fresh_default =
      R"({"v":1,"type":"query","id":4,"relation":"rel",)"
      R"("semantics":"expected-rank","k":2})";
  EXPECT_EQ(Call(&server, fresh_bypass).cache, CacheOutcome::kBypass);
  EXPECT_EQ(Call(&server, fresh_default).cache, CacheOutcome::kMiss);
  EXPECT_EQ(Call(&server, fresh_default).cache, CacheOutcome::kHit);
}

TEST(Server, HugeKIsAnInvalidKStatusAndServingContinues) {
  // The wire accepts any int for k. k > N must come back as code 1
  // ("invalid-k") instead of sizing U-Topk's O(N·k) table or U-kRanks'
  // k-long rows from the request, and the server keeps answering.
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());
  for (const char* semantics : {"u-topk", "u-kranks"}) {
    const std::string line =
        std::string(R"({"v":1,"type":"query","id":2,"relation":"rel",)") +
        R"("semantics":")" + semantics + R"(","k":2147483647})";
    const ParsedResponse response = Call(&server, line);
    EXPECT_EQ(response.code, QueryStatusCode::kInvalidK) << semantics;
    EXPECT_EQ(WireValue(response.code), 1) << semantics;
  }
  EXPECT_EQ(Call(&server, kQueryLine).code, QueryStatusCode::kOk);
}

TEST(Server, ReloadBumpsEpochAndInvalidatesCachedResults) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());
  ParsedResponse response = Call(&server, kQueryLine);
  EXPECT_DOUBLE_EQ(response.body.Find("epoch")->number_value(), 1.0);
  EXPECT_EQ(Call(&server, kQueryLine).cache, CacheOutcome::kHit);

  // Reload under the same name: epoch 2, and the hot entry is unreachable.
  server.AddRelation("rel", SmallRelation());
  response = Call(&server, kQueryLine);
  EXPECT_DOUBLE_EQ(response.body.Find("epoch")->number_value(), 2.0);
  EXPECT_EQ(response.cache, CacheOutcome::kMiss);
}

TEST(Server, AdminLoadFromInlineDataAndRelationListing) {
  Server server(InlineOptions());
  const ParsedResponse load = Call(
      &server,
      R"({"v":1,"type":"admin/load","id":1,"name":"demo","model":"tuple",)"
      R"("data":"1,10,0.5,-1\n2,9,0.4,-1\n"})");
  ASSERT_EQ(load.code, QueryStatusCode::kOk);
  EXPECT_DOUBLE_EQ(load.body.Find("tuples")->number_value(), 2.0);
  EXPECT_DOUBLE_EQ(load.body.Find("epoch")->number_value(), 1.0);

  const ParsedResponse listing =
      Call(&server, R"({"v":1,"type":"admin/relations","id":2})");
  ASSERT_EQ(listing.code, QueryStatusCode::kOk);
  const JsonValue* relations = listing.body.Find("relations");
  ASSERT_NE(relations, nullptr);
  ASSERT_EQ(relations->array_items().size(), 1u);
  EXPECT_EQ(relations->array_items()[0].Find("name")->string_value(), "demo");

  // Malformed CSV is a recoverable kInvalidRequest, not a crash, and the
  // registry is untouched.
  const ParsedResponse bad = Call(
      &server,
      R"({"v":1,"type":"admin/load","id":3,"name":"bad","model":"tuple",)"
      R"("data":"1,10,notaprob,-1\n"})");
  EXPECT_EQ(bad.code, QueryStatusCode::kInvalidRequest);
  EXPECT_EQ(Call(&server, R"({"v":1,"type":"admin/relations","id":4})")
                .body.Find("relations")
                ->array_items()
                .size(),
            1u);
}

TEST(Server, ErrorTaxonomyFlowsThroughTheWire) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());

  EXPECT_EQ(Call(&server, "not json").code, QueryStatusCode::kInvalidRequest);
  EXPECT_EQ(Call(&server,
                 R"({"v":1,"type":"query","id":1,"relation":"ghost",)"
                 R"("semantics":"expected-rank","k":3})")
                .code,
            QueryStatusCode::kUnknownRelation);
  // Engine-level validation: k = 0 surfaces the engine's own status code.
  EXPECT_EQ(Call(&server,
                 R"({"v":1,"type":"query","id":2,"relation":"rel",)"
                 R"("semantics":"expected-rank","k":0})")
                .code,
            QueryStatusCode::kInvalidK);
}

TEST(Server, OverloadShedsDeterministicallyWhenQueueIsFull) {
  ServerOptions options;
  options.workers = 0;  // nothing executes until Drain
  options.queue_capacity = 2;
  Server server(options);
  server.AddRelation("rel", SmallRelation());

  std::vector<std::future<std::string>> admitted;
  admitted.push_back(server.Submit(kQueryLine));
  admitted.push_back(server.Submit(kQueryLine));
  // Queue is now at capacity: the third query is shed immediately.
  std::future<std::string> shed = server.Submit(kQueryLine);
  ParsedResponse response;
  ASSERT_TRUE(ParseResponse(shed.get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOverloaded);

  // Observability still answers inline while the queue is full.
  std::future<std::string> ping =
      server.Submit(R"({"v":1,"type":"ping","id":9})");
  ASSERT_TRUE(ParseResponse(ping.get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
  std::future<std::string> metrics =
      server.Submit(R"({"v":1,"type":"metrics","id":10})");
  ASSERT_TRUE(ParseResponse(metrics.get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
  EXPECT_NE(response.body.Find("body")->string_value().find(
                "urank_serve_requests_total"),
            std::string::npos);

  // Drain executes what was admitted: both queued queries complete.
  server.Drain();
  for (std::future<std::string>& f : admitted) {
    ASSERT_TRUE(ParseResponse(f.get(), &response));
    EXPECT_EQ(response.code, QueryStatusCode::kOk);
  }
}

TEST(Server, ExpiredDeadlineShedsAtDequeueWithoutRunning) {
  ServerOptions options;
  options.workers = 0;
  Server server(options);
  server.AddRelation("rel", SmallRelation());

  // 1 nanosecond of budget: guaranteed expired by the time Drain dequeues
  // it, with no sleeps — the transcript stays deterministic.
  std::future<std::string> expired = server.Submit(
      R"({"v":1,"type":"query","id":1,"relation":"rel",)"
      R"("semantics":"expected-rank","k":3,"deadline_ms":1e-9})");
  std::future<std::string> unbounded = server.Submit(kQueryLine);
  server.Drain();

  ParsedResponse response;
  ASSERT_TRUE(ParseResponse(expired.get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kDeadlineExceeded);
  ASSERT_TRUE(ParseResponse(unbounded.get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
}

TEST(Server, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  ServerOptions options;
  options.workers = 0;
  options.default_deadline_ms = 1e-9;
  Server server(options);
  server.AddRelation("rel", SmallRelation());

  std::future<std::string> expired = server.Submit(kQueryLine);
  server.Drain();
  ParsedResponse response;
  ASSERT_TRUE(ParseResponse(expired.get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kDeadlineExceeded);
}

TEST(Server, DrainIsIdempotentAndPostDrainSubmitsAreShed) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());
  EXPECT_EQ(Call(&server, kQueryLine).code, QueryStatusCode::kOk);

  server.Drain();
  server.Drain();  // must not hang or double-join

  ParsedResponse response;
  ASSERT_TRUE(ParseResponse(server.Submit(kQueryLine).get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOverloaded);
  // Inline-handled types still answer after drain.
  ASSERT_TRUE(ParseResponse(
      server.Submit(R"({"v":1,"type":"ping","id":1})").get(), &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
}

TEST(Server, ConcurrentSubmissionsAllResolve) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 1024;
  Server server(options);
  TupleGenConfig config;
  config.num_tuples = 500;
  config.seed = 11;
  server.AddRelation("rel", GenerateTupleRelation(config));

  std::vector<std::future<std::string>> futures;
  futures.reserve(64);
  for (int i = 0; i < 64; ++i) futures.push_back(server.Submit(kQueryLine));
  int ok = 0;
  for (std::future<std::string>& f : futures) {
    ParsedResponse response;
    ASSERT_TRUE(ParseResponse(f.get(), &response));
    if (response.code == QueryStatusCode::kOk) ++ok;
  }
  EXPECT_EQ(ok, 64);
}

TEST(TcpTransport, LoopbackRoundTripAndShutdown) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());
  TcpServer transport(&server);
  std::string error;
  ASSERT_TRUE(transport.Start(0, &error)) << error;
  ASSERT_GT(transport.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", transport.port(), &error)) << error;
  std::string response_line;
  ASSERT_TRUE(client.Call(R"({"v":1,"type":"ping","id":1})", &response_line));
  ParsedResponse response;
  ASSERT_TRUE(ParseResponse(response_line, &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);

  ASSERT_TRUE(client.Call(kQueryLine, &response_line));
  ASSERT_TRUE(ParseResponse(response_line, &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
  EXPECT_EQ(response.body.Find("relation")->string_value(), "rel");

  // Two clients on one server: the second sees the first's cache entry.
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", transport.port(), &error)) << error;
  ASSERT_TRUE(second.Call(kQueryLine, &response_line));
  ASSERT_TRUE(ParseResponse(response_line, &response));
  EXPECT_EQ(response.cache, CacheOutcome::kHit);

  transport.Shutdown();
  transport.Shutdown();  // idempotent
  // After shutdown the connection is gone.
  EXPECT_FALSE(client.Call(kQueryLine, &response_line));
}

TEST(TcpTransport, OversizedLineIsRejectedAndOtherConnectionsServed) {
  Server server(InlineOptions());
  server.AddRelation("rel", SmallRelation());
  TcpServer transport(&server);
  std::string error;
  ASSERT_TRUE(transport.Start(0, &error)) << error;

  Client bystander;
  ASSERT_TRUE(bystander.Connect("127.0.0.1", transport.port(), &error))
      << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", transport.port(), &error)) << error;

  // One byte over the 64 MiB cap: answered once, then the connection
  // closes.
  const std::string huge((std::size_t{64} << 20) + 1, 'x');
  std::string response_line;
  ASSERT_TRUE(client.Call(huge, &response_line));
  ParsedResponse response;
  ASSERT_TRUE(ParseResponse(response_line, &response)) << response_line;
  EXPECT_EQ(response.code, QueryStatusCode::kInvalidRequest);
  EXPECT_NE(response.error.find("64 MiB"), std::string::npos)
      << response.error;
  EXPECT_FALSE(client.Call(R"({"v":1,"type":"ping","id":2})", &response_line));

  // Other connections, old and new, keep being served.
  ASSERT_TRUE(bystander.Call(kQueryLine, &response_line));
  ASSERT_TRUE(ParseResponse(response_line, &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", transport.port(), &error)) << error;
  ASSERT_TRUE(fresh.Call(R"({"v":1,"type":"ping","id":3})", &response_line));
  ASSERT_TRUE(ParseResponse(response_line, &response));
  EXPECT_EQ(response.code, QueryStatusCode::kOk);
}

// Live threads of this process, and its mapped address space in KiB (an
// exited but unjoined thread keeps its stack mapped).
std::size_t TaskCount() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

long long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      long long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST(TcpTransport, FinishedConnectionsAreReaped) {
  Server server(InlineOptions());
  TcpServer transport(&server);
  std::string error;
  ASSERT_TRUE(transport.Start(0, &error)) << error;

  const std::size_t tasks_before = TaskCount();
  const long long vm_before = VmSizeKb();
  std::string response_line;
  for (int i = 0; i < 500; ++i) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", transport.port(), &error))
        << error;
    ASSERT_TRUE(client.Call(R"({"v":1,"type":"ping","id":1})", &response_line));
    client.Close();
  }
  EXPECT_LE(TaskCount(), tasks_before + 4);
  // 500 unjoined connection threads would keep ~500 stacks mapped.
  EXPECT_LT(VmSizeKb() - vm_before, 512LL << 10);
}

}  // namespace
}  // namespace serve
}  // namespace urank
