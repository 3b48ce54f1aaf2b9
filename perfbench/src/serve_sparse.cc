// serve_sparse: a live ServeServer on loopback takes seeded Poisson
// arrivals of encode requests on held-out tables, sent open-loop over a few
// blocking connections. Latency runs from each request's due time.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <cmath>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.h"
#include "nn/train_parallel.h"
#include "obs/eventlog.h"
#include "rt/inference_session.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/rng.h"

namespace turl {
namespace perfbench {
namespace {

/// Arrivals per second. Batches never fill at this rate, so latency is
/// mostly the scheduler's age wait plus the pump tick.
constexpr double kRequestsPerSecond = 40.0;
constexpr int kConnections = 4;
constexpr int kCorpusTables = 3000;
constexpr int kWarmupCallsPerConnection = 2;
/// Held-out tables a seed draws the requests from.
constexpr size_t kPoolTables = 256;

class ServeSparse final : public Workload {
 public:
  explicit ServeSparse(const Options& options) : options_(options) {}
  ~ServeSparse() override { Stop(); }

  void Setup() override {
    nn::SetTrainThreads(1);
    core::ContextConfig config;
    config.corpus.num_tables = kCorpusTables;
    config.seed = kWorldSeed;
    ctx_ = core::BuildContext(config);
    model_ = BuildAndLoadModel(ctx_, options_.scratch_dir, "serve_sparse");
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    std::vector<size_t> held_out = ctx_.corpus.valid;
    held_out.insert(held_out.end(), ctx_.corpus.test.begin(),
                    ctx_.corpus.test.end());
    pool_.clear();
    for (size_t idx :
         SampleSeeded(held_out, kPoolTables, MixSeed(options_.seed, 1))) {
      core::EncodedTable t = core::EncodeTable(ctx_.corpus.tables[idx],
                                               tokenizer, ctx_.entity_vocab);
      if (t.total() > 0) pool_.push_back(std::move(t));
    }
    TURL_CHECK(!pool_.empty());

    serve::ServeOptions so;
    so.port = 0;
    so.num_replicas = 1;
    so.session.num_threads = 1;
    so.num_io_workers = kConnections + 1;
    server_ = std::make_unique<serve::ServeServer>(*model_.model, so);
    const Status s = server_->Start();
    TURL_CHECK(s.ok()) << "server start: " << s.ToString();
    clients_.clear();
    for (int c = 0; c < kConnections; ++c) {
      auto client = std::make_unique<serve::ServeClient>();
      const Status cs = client->Connect("127.0.0.1", server_->port());
      TURL_CHECK(cs.ok()) << "connect: " << cs.ToString();
      clients_.push_back(std::move(client));
    }
    // Warm-up: the first batches and arena freelists on every connection.
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([this, c] {
        for (int k = 0; k < kWarmupCallsPerConnection; ++k) {
          serve::WireResponse r;
          const Status st = clients_[size_t(c)]->Call(
              pool_[size_t(c + k) % pool_.size()], rt::TaskKind::kEncode,
              uint64_t(c * 16 + k), &r);
          TURL_CHECK(st.ok() && r.status == rt::ResponseStatus::kOk)
              << "warm-up call failed";
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  std::string ThreadReport() const override {
    std::ostringstream os;
    os << "serve_sparse threads: compute 1 (1 replica x 1 session thread, "
          "kernel pool inline) + generator 2 (sender, receiver) over "
       << kConnections << " connections = 3 of " << Cores() << " cores";
    return os.str();
  }

  Window Run(double seconds, Spans* spans) override {
    const uint64_t window = ++windows_;
    const int64_t n = std::max<int64_t>(1, std::llround(kRequestsPerSecond *
                                                        seconds));
    // A Poisson process conditioned on its count in each sub-window:
    // uniform arrival times, sorted, so every window holds exactly rate x
    // seconds requests and every sub-window its share.
    Rng rng(MixSeed(options_.seed, 100 + window));
    std::vector<double> due_s(static_cast<size_t>(n));
    std::vector<size_t> table(static_cast<size_t>(n));
    const double part = seconds / kSubWindows;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t k = i * kSubWindows / n;
      due_s[size_t(i)] = part * (double(k) + rng.UniformDouble());
    }
    std::sort(due_s.begin(), due_s.end());
    for (int64_t i = 0; i < n; ++i) table[size_t(i)] = rng.Uniform(pool_.size());

    struct Outcome {
      bool sent = false;
      bool transport_ok = false;
      rt::ResponseStatus status = rt::ResponseStatus::kOk;
      double latency_ms = 0.0;  // From the due time to the reply.
      double late_ms = 0.0;     // From the due time to the send.
      double call_ms = 0.0;     // Send to reply: one ServeClient::Call.
      double end_s = 0.0;       // Reply time since the window start.
      std::vector<float> hidden;
    };
    std::vector<Outcome> outcomes(static_cast<size_t>(n));
    const uint64_t id_base = window << 32;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    const auto due_at = [&](int64_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s[size_t(i)]));
    };

    // Two generator threads drive all connections: this thread sends each
    // request when due on an idle connection (ServeClient::Call's send
    // half), the receiver reads replies in send order (its receive half).
    // The single replica answers in submission order, so reading in send
    // order never holds back a finished reply.
    struct Sent {
      int conn = -1;
      int64_t index = 0;
      Clock::time_point at;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Sent> inflight;
    std::vector<bool> idle(clients_.size(), true);
    bool sending_done = false;
    std::thread receiver([&] {
      for (;;) {
        Sent sent;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !inflight.empty() || sending_done; });
          if (inflight.empty()) return;
          sent = inflight.front();
          inflight.pop_front();
        }
        serve::WireResponse r;
        const Status s = clients_[size_t(sent.conn)]->ReadResponse(&r);
        const Clock::time_point now = Clock::now();
        Outcome& o = outcomes[size_t(sent.index)];
        o.transport_ok = s.ok() && r.request_id == id_base + uint64_t(sent.index);
        o.status = r.status;
        o.latency_ms = MsBetween(due_at(sent.index), now);
        o.call_ms = MsBetween(sent.at, now);
        o.end_s = SecondsBetween(start, now);
        o.hidden = std::move(r.hidden);
        std::lock_guard<std::mutex> lock(mu);
        idle[size_t(sent.conn)] = s.ok();  // A failed connection stays out.
        cv.notify_all();
      }
    });
    for (int64_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due_at(i));
      int conn = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        // Wait for an idle connection while any request is still in
        // flight (dead connections never come back).
        cv.wait(lock, [&] {
          return std::find(idle.begin(), idle.end(), true) != idle.end() ||
                 inflight.empty();
        });
        auto it = std::find(idle.begin(), idle.end(), true);
        if (it == idle.end()) break;  // Every connection failed.
        conn = int(it - idle.begin());
        idle[size_t(conn)] = false;
      }
      const Clock::time_point at = Clock::now();
      Outcome& o = outcomes[size_t(i)];
      o.sent = true;
      o.late_ms = MsBetween(due_at(i), at);
      const Status s = clients_[size_t(conn)]->SendRaw(serve::EncodeRequestFrame(
          pool_[table[size_t(i)]], rt::TaskKind::kEncode, id_base + uint64_t(i)));
      std::lock_guard<std::mutex> lock(mu);
      if (s.ok()) {
        inflight.push_back({conn, i, at});
        cv.notify_all();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      sending_done = true;
      cv.notify_all();
    }
    receiver.join();

    // Verification, after the window: every reply against the 1-thread
    // in-process reference, bit for bit.
    Window w;
    w.attempted = n;
    w.seconds = seconds;
    counts_.assign(pool_.size(), 0);
    std::vector<double> late_ms;
    for (int64_t i = 0; i < n; ++i) {
      const Outcome& o = outcomes[size_t(i)];
      if (o.sent) late_ms.push_back(o.late_ms);
      const bool ok = o.sent && o.transport_ok &&
                      o.status == rt::ResponseStatus::kOk &&
                      SameBits(o.hidden, Reference(table[size_t(i)]));
      if (!ok) {
        ++w.failed;
        continue;
      }
      ++counts_[table[size_t(i)]];
      w.samples.push_back({o.end_s, o.latency_ms, 1});
    }

    if (spans != nullptr) {
      std::vector<double> queue, encode, reply, batch, wire;
      for (const obs::WideEvent& e : obs::EventLog::Get().Snapshot()) {
        if (e.origin == nullptr || std::strcmp(e.origin, "serve") != 0 ||
            e.request_id < id_base || e.request_id >= id_base + uint64_t(n)) {
          continue;
        }
        const Outcome& o = outcomes[size_t(e.request_id - id_base)];
        if (!o.transport_ok || o.status != rt::ResponseStatus::kOk) continue;
        queue.push_back(e.queue_wait_us / 1e3);
        encode.push_back(e.encode_us / 1e3);
        reply.push_back(e.reply_us / 1e3);
        batch.push_back(double(e.batch_size));
        wire.push_back(o.call_ms - e.total_us / 1e3);
      }
      if (!queue.empty()) {
        w.layers["serve.queue_wait_ms"] = {Mean(queue), "ms"};
        w.layers["serve.encode_ms"] = {Mean(encode), "ms"};
        w.layers["serve.reply_ms"] = {Mean(reply), "ms"};
        w.layers["serve.batch_size"] = {Mean(batch), "requests"};
        w.layers["serve.wire_ms"] = {Mean(wire), "ms"};
      }
      w.layers["serve.failed"] = {double(w.failed), "count"};
      w.layers["gen.late_p99_ms"] = {Quantile(late_ms, 0.99), "ms"};
    }
    return w;
  }

  double LossNats() override {
    double sum = 0.0;
    int64_t rows = 0;
    for (size_t j = 0; j < pool_.size(); ++j) {
      if (counts_.empty() || counts_[j] == 0) continue;
      double s = 0.0;
      int64_t r = 0;
      MlmTokenLoss(*model_.model, pool_[j], Reference(j), &s, &r);
      sum += s * double(counts_[j]);
      rows += r * counts_[j];
    }
    return rows > 0 ? sum / double(rows) : 0.0;
  }

  uint64_t InputDigest() const override {
    uint64_t h = 0xCBF29CE484222325ull;
    for (const core::EncodedTable& t : pool_) h = DigestTable(h, t);
    return h;
  }

  void CoreProbe(MetricMap* out) override {
    const text::WordPieceTokenizer tokenizer = ctx_.MakeTokenizer();
    double ms = 0.0;
    int64_t calls = 0;
    for (size_t idx : ctx_.corpus.valid) {
      const Clock::time_point t0 = Clock::now();
      const core::EncodedTable t = core::EncodeTable(
          ctx_.corpus.tables[idx], tokenizer, ctx_.entity_vocab);
      ms += MsBetween(t0, Clock::now());
      ++calls;
    }
    if (calls > 0) (*out)["core.encode_table_ms"] = {ms / double(calls), "ms"};
    CoreProbeOver(*model_.model, pool_, options_.seed, out);
  }

  double LoadMs() const override { return model_.load_ms; }

 private:
  const std::vector<float>& Reference(size_t j) {
    if (reference_.size() != pool_.size()) {
      reference_.assign(pool_.size(), {});
      have_reference_.assign(pool_.size(), false);
    }
    if (!have_reference_[j]) {
      if (reference_session_ == nullptr) {
        reference_session_ = std::make_unique<rt::InferenceSession>(
            *model_.model, rt::SessionOptions{.num_threads = 1});
      }
      reference_[j] = reference_session_->Encode(pool_[j]).ToVector();
      if (options_.corrupt_reference) CorruptInPlace(&reference_[j]);
      have_reference_[j] = true;
    }
    return reference_[j];
  }

  void Stop() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  Options options_;
  core::TurlContext ctx_;
  LoadedModel model_;
  std::vector<core::EncodedTable> pool_;
  std::unique_ptr<serve::ServeServer> server_;
  std::vector<std::unique_ptr<serve::ServeClient>> clients_;
  std::unique_ptr<rt::InferenceSession> reference_session_;
  std::vector<std::vector<float>> reference_;
  std::vector<bool> have_reference_;
  std::vector<int64_t> counts_;  ///< Verified replies per pool table.
  uint64_t windows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeSparse(const Options& options) {
  return std::make_unique<ServeSparse>(options);
}

}  // namespace perfbench
}  // namespace turl
