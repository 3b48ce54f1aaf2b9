// Lifecycle tests for the serving front-end, on real loopback sockets:
// round-trip correctness against the session oracle, multi-replica fan-out
// under concurrent clients, request- and connection-level shedding with
// OVERLOADED, wire-deadline enforcement, malformed frames failing the
// connection without hurting the server, readiness probe coverage, and the
// graceful drain completing in-flight requests.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/table_encoding.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/server/handlers.h"
#include "rt/inference_session.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"

namespace turl {
namespace serve {
namespace {

const core::TurlContext& Ctx() {
  static core::TurlContext* ctx = [] {
    core::ContextConfig config;
    config.corpus.num_tables = 150;
    config.seed = 42;
    return new core::TurlContext(core::BuildContext(config));
  }();
  return *ctx;
}

core::TurlConfig SmallConfig() {
  core::TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

const core::TurlModel& Model() {
  static core::TurlModel* model =
      new core::TurlModel(SmallConfig(), Ctx().vocab.size(),
                          Ctx().entity_vocab.size(), /*seed=*/11);
  return *model;
}

/// The determinism oracle: EncodeBatch(tables)[i] is bit-identical to
/// Encode(tables[i]) regardless of batch composition, so a single-threaded
/// reference session predicts every server reply exactly.
const rt::InferenceSession& Oracle() {
  static rt::InferenceSession* session = new rt::InferenceSession(
      Model(), rt::SessionOptions{.num_threads = 1});
  return *session;
}

std::vector<core::EncodedTable> SomeTables(size_t n) {
  std::vector<core::EncodedTable> out;
  const text::WordPieceTokenizer tokenizer = Ctx().MakeTokenizer();
  for (size_t idx : Ctx().corpus.valid) {
    core::EncodedTable t = core::EncodeTable(Ctx().corpus.tables[idx],
                                             tokenizer, Ctx().entity_vocab);
    if (t.total() > 0) out.push_back(std::move(t));
    if (out.size() >= n) break;
  }
  return out;
}

ServeOptions FastOptions() {
  ServeOptions options;
  options.port = 0;
  options.num_replicas = 1;
  options.session.num_threads = 1;
  return options;
}

TEST(ServeServerTest, StartStopLifecycle) {
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.num_replicas(), 1);
  EXPECT_FALSE(server.Start().ok());  // Already running.
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.

  // Restartable, on a fresh ephemeral port.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(ServeServerTest, StartRejectsOutOfRangePort) {
  // htons() of a 32-bit port truncates: 70000 would silently bind 4464.
  for (int port : {70000, 65536, -1}) {
    ServeOptions options = FastOptions();
    options.port = port;
    ServeServer server(Model(), options);
    const Status s = server.Start();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_FALSE(server.running()) << port;
    EXPECT_EQ(server.num_replicas(), 0) << port;  // Nothing left warm.
  }
}

TEST(ServeServerTest, OptionsFromEnvKeepsDefaultsForMalformedValues) {
  ::setenv("TURL_SERVE_PORT", "8080x", 1);
  ::setenv("TURL_SERVE_REPLICAS", "0", 1);
  ServeOptions options = ServeServer::OptionsFromEnv();
  EXPECT_EQ(options.port, 0);
  EXPECT_EQ(options.num_replicas, 2);

  ::setenv("TURL_SERVE_PORT", "70000", 1);
  ::setenv("TURL_SERVE_REPLICAS", "3", 1);
  options = ServeServer::OptionsFromEnv();
  EXPECT_EQ(options.port, 0);
  EXPECT_EQ(options.num_replicas, 3);
  ::unsetenv("TURL_SERVE_PORT");
  ::unsetenv("TURL_SERVE_REPLICAS");
}

TEST(ServeServerTest, RoundtripMatchesSessionEncode) {
  const std::vector<core::EncodedTable> tables = SomeTables(5);
  ASSERT_FALSE(tables.empty());
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (size_t i = 0; i < tables.size(); ++i) {
    WireResponse response;
    ASSERT_TRUE(client
                    .Call(tables[i], rt::TaskKind::kEncode,
                          /*request_id=*/1000 + i, &response)
                    .ok());
    ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
    EXPECT_EQ(response.request_id, 1000 + i);
    const nn::Tensor expected = Oracle().Encode(tables[i]);
    EXPECT_EQ(response.rows, expected.dim(0));
    EXPECT_EQ(response.cols, expected.dim(1));
    EXPECT_EQ(response.hidden, expected.ToVector()) << "table " << i;
  }
  client.Close();
  server.Stop();
}

TEST(ServeServerTest, MultiReplicaConcurrentClients) {
  const std::vector<core::EncodedTable> tables = SomeTables(6);
  ASSERT_GE(tables.size(), 2u);
  ServeOptions options = FastOptions();
  options.num_replicas = 2;
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.num_replicas(), 2);

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 3;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures[c] = kCallsPerClient;
        return;
      }
      for (int call = 0; call < kCallsPerClient; ++call) {
        const size_t t = (c + call) % tables.size();
        WireResponse response;
        const uint64_t id = uint64_t(c) * 100 + call;
        if (!client.Call(tables[t], rt::TaskKind::kEncode, id, &response)
                 .ok() ||
            response.status != rt::ResponseStatus::kOk ||
            response.request_id != id ||
            response.hidden != Oracle().Encode(tables[t]).ToVector()) {
          ++failures[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << "client " << c;
  EXPECT_EQ(server.inflight(), 0);
  server.Stop();
}

TEST(ServeServerTest, RequestShedWithOverloadedAtInflightCap) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeOptions options = FastOptions();
  options.max_inflight_requests = 0;  // Admission always sheds.
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(
      client.Call(tables[0], rt::TaskKind::kEncode, 1, &response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOverloaded);
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_TRUE(response.hidden.empty());

  // Shedding a request keeps the connection alive: the client can back off
  // and retry on the same socket (and is shed again, deterministically).
  ASSERT_TRUE(
      client.Call(tables[0], rt::TaskKind::kEncode, 2, &response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOverloaded);
  EXPECT_EQ(response.request_id, 2u);
  server.Stop();
}

TEST(ServeServerTest, ConnectionShedWithOverloadedAtQueueCap) {
  ServeOptions options = FastOptions();
  options.num_io_workers = 1;
  options.max_queued_connections = 1;
  ServeServer server(Model(), options);
  ASSERT_TRUE(server.Start().ok());

  // First connection occupies the lone worker; second fills the queue.
  ServeClient held, queued;
  ASSERT_TRUE(held.Connect("127.0.0.1", server.port()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(queued.Connect("127.0.0.1", server.port()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Third connection: the accept loop sheds it with an OVERLOADED frame and
  // closes — the wire analogue of the obs server's 503.
  ServeClient shed;
  ASSERT_TRUE(shed.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(shed.ReadResponse(&response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOverloaded);
  EXPECT_NE(response.message.find("connection queue"), std::string::npos);
  server.Stop();
}

TEST(ServeServerTest, ZeroWireDeadlineIsExpiredOnArrival) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(client
                  .Call(tables[0], rt::TaskKind::kEncode, 5, &response,
                        /*deadline_ms=*/0)
                  .ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_TRUE(response.hidden.empty());

  // A generous deadline on the same connection still succeeds.
  ASSERT_TRUE(client
                  .Call(tables[0], rt::TaskKind::kEncode, 6, &response,
                        /*deadline_ms=*/60000)
                  .ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kOk);
  server.Stop();
}

TEST(ServeServerTest, MalformedFramesFailTheConnectionNotTheServer) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());

  {
    // Bad magic: the server answers kBadRequest, then closes.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string garbage(kRequestHeaderBytes, 'Z');
    ASSERT_TRUE(client.SendRaw(garbage).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
    EXPECT_FALSE(client.ReadResponse(&response).ok());  // Closed.
  }
  {
    // Oversized length prefix: rejected before the claimed payload is ever
    // allocated, as kBadRequest.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string frame =
        EncodeRequestFrame(tables[0], rt::TaskKind::kEncode, 7);
    const uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(frame.data() + 20, &huge, sizeof(huge));
    ASSERT_TRUE(client.SendRaw(frame.substr(0, kRequestHeaderBytes)).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
    EXPECT_NE(response.message.find("exceeds cap"), std::string::npos);
  }
  {
    // Unknown task id.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string frame =
        EncodeRequestFrame(tables[0], rt::TaskKind::kEncode, 8);
    frame[6] = 42;
    ASSERT_TRUE(client.SendRaw(frame).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
    EXPECT_NE(response.message.find("task"), std::string::npos);
  }
  {
    // Truncated frame: half a header, then hang up. Nothing to answer; the
    // server must just drop the connection.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.SendRaw(std::string(kRequestHeaderBytes / 2, 'A')).ok());
    client.Close();
  }
  {
    // Corrupt payload (bad inner counts): kBadRequest, connection closed.
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    std::string frame =
        EncodeRequestFrame(tables[0], rt::TaskKind::kEncode, 9);
    // Overwrite the num_tokens count inside the payload with a huge claim.
    const uint32_t hostile = 1u << 30;
    std::memcpy(frame.data() + kRequestHeaderBytes, &hostile, sizeof(hostile));
    ASSERT_TRUE(client.SendRaw(frame).ok());
    WireResponse response;
    ASSERT_TRUE(client.ReadResponse(&response).ok());
    EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
  }

  // After all that abuse, a clean client still gets a correct answer.
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WireResponse response;
  ASSERT_TRUE(
      client.Call(tables[0], rt::TaskKind::kEncode, 10, &response).ok());
  ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
  EXPECT_EQ(response.hidden, Oracle().Encode(tables[0]).ToVector());
  server.Stop();
}

int64_t BadFrames() {
  return obs::MetricsRegistry::Get().GetCounter("serve.bad_frames")->Value();
}

/// Sends `hostile` and expects BAD_REQUEST, then sends `valid` on the same
/// connection and expects the oracle's answer.
void ExpectRefusedThenServed(ServeClient* client,
                             const core::EncodedTable& hostile,
                             const core::EncodedTable& valid, uint64_t id) {
  const int64_t bad_before = BadFrames();
  WireResponse response;
  ASSERT_TRUE(client->Call(hostile, rt::TaskKind::kEncode, id, &response).ok());
  EXPECT_EQ(response.status, rt::ResponseStatus::kBadRequest);
  EXPECT_EQ(response.request_id, id);
  EXPECT_TRUE(response.hidden.empty());
  EXPECT_EQ(BadFrames(), bad_before + 1);
  ASSERT_TRUE(
      client->Call(valid, rt::TaskKind::kEncode, id + 1, &response).ok());
  ASSERT_EQ(response.status, rt::ResponseStatus::kOk) << response.message;
  EXPECT_EQ(response.hidden, Oracle().Encode(valid).ToVector());
}

// Well-formed frames whose tables do not fit the model used to reach a
// TURL_CHECK in Encode and abort the server. Each is refused on its own,
// and the connection keeps serving.
TEST(ServeServerTest, HostileTablesGetBadRequestAndKeepTheConnection) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  const core::EncodedTable& valid = tables[0];
  ASSERT_GT(valid.num_tokens(), 0);
  ASSERT_GT(valid.num_entities(), 1);
  const int mention_entity = [&] {
    for (int i = 0; i < valid.num_entities(); ++i) {
      if (!valid.entity_mentions[size_t(i)].empty()) return i;
    }
    return -1;
  }();
  ASSERT_GE(mention_entity, 0);

  std::vector<std::pair<std::string, core::EncodedTable>> hostile;
  hostile.emplace_back("token id 2^30", valid);
  hostile.back().second.token_ids[0] = 1 << 30;
  hostile.emplace_back("entity id -5", valid);
  hostile.back().second.entity_ids[1] = -5;
  hostile.emplace_back("segment 2", valid);
  hostile.back().second.token_segment[0] = 2;
  hostile.emplace_back("mention id past the vocab", valid);
  hostile.back().second.entity_mentions[size_t(mention_entity)][0] =
      Model().word_vocab_size();
  core::EncodedTable long_table;
  for (int i = 0; i < 5000; ++i) {
    long_table.token_ids.push_back(valid.token_ids[0]);
    long_table.token_segment.push_back(core::kSegmentCaption);
    long_table.token_position.push_back(i);
    long_table.token_column.push_back(-1);
  }
  hostile.emplace_back("5000 tokens", std::move(long_table));

  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  uint64_t id = 100;
  for (const auto& [name, table] : hostile) {
    SCOPED_TRACE(name);
    ExpectRefusedThenServed(&client, table, valid, id);
    id += 2;
  }
  EXPECT_TRUE(server.running());
  server.Stop();
}

// A seeded sweep: every case sets one field of a valid frame out of range,
// at a random element, to a random bad value.
TEST(ServeServerTest, OneFieldOutOfRangeSweepGetsBadRequest) {
  const std::vector<core::EncodedTable> tables = SomeTables(1);
  ASSERT_FALSE(tables.empty());
  const core::EncodedTable& valid = tables[0];
  const int nt = valid.num_tokens();
  const int ne = valid.num_entities();
  ASSERT_GT(nt, 0);
  ASSERT_GT(ne, 0);
  const int words = Model().word_vocab_size();
  const int entities = Model().entity_vocab_size();

  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Rng rng(2024);
  // A value below or above [lo, hi): lo - 1 - r or hi + r, r in [0, 2^20).
  const auto outside = [&](int lo, int hi) {
    const int r = int(rng.Uniform(1 << 20));
    return rng.Bernoulli(0.5) ? lo - 1 - r : hi + r;
  };
  // A row or column: -1 where the element has none, >= 0 where it has.
  const auto bad_coordinate = [&](bool has_coordinate) {
    return has_coordinate ? -1 - int(rng.Uniform(1 << 20))
                          : outside(-1, 0);
  };
  constexpr int kFields = 9;
  uint64_t id = 1000;
  for (int round = 0; round < 4 * kFields; ++round) {
    core::EncodedTable table = valid;
    const int field = round % kFields;
    const size_t t = size_t(rng.Uniform(uint64_t(nt)));
    const size_t e = size_t(rng.Uniform(uint64_t(ne)));
    const bool header = table.token_segment[t] == core::kSegmentHeader;
    const bool cell = table.entity_role[e] != core::kRoleTopic;
    switch (field) {
      case 0: table.token_ids[t] = outside(0, words); break;
      case 1: table.token_segment[t] = outside(0, 2); break;
      case 2: table.token_position[t] = -1 - int(rng.Uniform(1 << 20)); break;
      case 3: table.token_column[t] = bad_coordinate(header); break;
      case 4: table.entity_ids[e] = outside(0, entities); break;
      case 5: table.entity_role[e] = outside(0, 3); break;
      case 6: table.entity_row[e] = bad_coordinate(cell); break;
      case 7: table.entity_column[e] = bad_coordinate(cell); break;
      case 8: table.entity_mentions[e].push_back(outside(0, words)); break;
    }
    SCOPED_TRACE(::testing::Message() << "round " << round << ", field "
                                      << field);
    ExpectRefusedThenServed(&client, table, valid, id);
    id += 2;
  }
  server.Stop();
}

TEST(ServeServerTest, ReadinessProbeTracksLifecycle) {
  auto probe_state = [](const char* name, bool* found, bool* ok) {
    *found = false;
    *ok = false;
    for (const auto& r : obs::server::HealthRegistry::Get().RunAll()) {
      if (r.name == name) {
        *found = true;
        *ok = r.ok;
      }
    }
  };
  bool found = false, ok = false;
  probe_state("serve.listener", &found, &ok);
  EXPECT_FALSE(found);

  ServeServer server(Model(), FastOptions());
  ASSERT_TRUE(server.Start().ok());
  probe_state("serve.listener", &found, &ok);
  EXPECT_TRUE(found);
  EXPECT_TRUE(ok);

  server.Stop();
  probe_state("serve.listener", &found, &ok);
  EXPECT_FALSE(found);
}

TEST(ServeServerTest, GracefulDrainCompletesInflightRequests) {
  // A wider model and the largest of the first 20 tables make the encode
  // long enough that Stop() reliably races a request still in flight.
  core::TurlConfig config;
  config.num_layers = 2;
  config.d_model = 128;
  config.d_intermediate = 512;
  config.num_heads = 4;
  const core::TurlModel model(config, Ctx().vocab.size(),
                              Ctx().entity_vocab.size(), /*seed=*/11);
  const std::vector<core::EncodedTable> tables = SomeTables(20);
  ASSERT_FALSE(tables.empty());
  const core::EncodedTable& table = *std::max_element(
      tables.begin(), tables.end(),
      [](const core::EncodedTable& a, const core::EncodedTable& b) {
        return a.total() < b.total();
      });
  ServeServer server(model, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  WireResponse response;
  Status call_status = Status::Internal("not run");
  std::thread client_thread([&] {
    ServeClient client;
    const Status c = client.Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      call_status = c;
      return;
    }
    call_status = client.Call(table, rt::TaskKind::kEncode, 77, &response);
  });
  // Wait until the request is admitted, then stop the server under it.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool in_flight = false;
  while (!(in_flight = server.inflight() == 1) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(in_flight) << "the request was not caught in flight";
  server.Stop();
  client_thread.join();

  // The drain completed the admitted request instead of dropping it.
  ASSERT_TRUE(call_status.ok()) << call_status.ToString();
  ASSERT_EQ(response.status, rt::ResponseStatus::kOk);
  EXPECT_EQ(response.request_id, 77u);
  const rt::InferenceSession oracle(model,
                                    rt::SessionOptions{.num_threads = 1});
  EXPECT_EQ(response.hidden, oracle.Encode(table).ToVector());
}

}  // namespace
}  // namespace serve
}  // namespace turl
