// Microbenchmarks (google-benchmark) of the kernels the experiments sit on:
// the blocked GEMM family (against the naive triple loops they replaced),
// GEMM via MatMul, masked multi-head attention forward/backward, the
// WordPiece tokenizer, visibility-matrix construction, table encoding,
// corpus generation and lookup-service candidate generation.
//
// On top of the google-benchmark timings, main() measures naive vs blocked
// GEMM directly over the encoder's characteristic shapes (square 256^3, the
// ragged attention-ish 312x768x64 and the single-row logits 1x768x30522),
// and the libm row loops vs the vector-exp row kernels (GeLU forward and
// backward, an unmasked and a masked 225x225 softmax), and writes the
// items/sec pairs plus speedups and errors to BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/visibility.h"
#include "kb/lookup.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "obs/profiler.h"

namespace {

using namespace turl;

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Random({n, n}, rng);
  nn::Tensor b = nn::Tensor::Random({n, n}, rng);
  for (auto _ : state) {
    nn::Tensor c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

/// Blocked kernel vs the preserved naive loops over {m, k, n}. The ragged
/// arguments mirror the model's real shapes: a row-panel GEMM from the
/// encoder stack and the 1-row MLM logits GEMM against the word embedding.
void BM_GemmKernel(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(2);
  nn::Tensor a = nn::Tensor::Random({m, k}, rng);
  nn::Tensor b = nn::Tensor::Random({k, n}, rng);
  std::vector<float> c(size_t(m * n));
  for (auto _ : state) {
    nn::kernels::GemmNN(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                        /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmKernel)
    ->Args({256, 256, 256})
    ->Args({312, 768, 64})
    ->Args({1, 768, 30522});

void BM_GemmNaive(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(3);
  nn::Tensor a = nn::Tensor::Random({m, k}, rng);
  nn::Tensor b = nn::Tensor::Random({k, n}, rng);
  std::vector<float> c(size_t(m * n));
  for (auto _ : state) {
    nn::kernels::naive::GemmNN(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                               /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmNaive)
    ->Args({256, 256, 256})
    ->Args({312, 768, 64})
    ->Args({1, 768, 30522});

void BM_MaskedAttentionForward(benchmark::State& state) {
  const int64_t n = state.range(0), d = 64;
  Rng rng(2);
  nn::Tensor q = nn::Tensor::Random({n, d}, rng);
  nn::Tensor k = nn::Tensor::Random({n, d}, rng);
  nn::Tensor v = nn::Tensor::Random({n, d}, rng);
  std::vector<float> mask(size_t(n * n), 0.f);
  for (int64_t i = 0; i < n * n; i += 3) mask[size_t(i)] = -1e9f;
  for (auto _ : state) {
    nn::Tensor out = nn::MultiHeadAttention(q, k, v, mask, 4);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MaskedAttentionForward)->Arg(32)->Arg(64)->Arg(128);

void BM_MaskedAttentionBackward(benchmark::State& state) {
  const int64_t n = state.range(0), d = 64;
  Rng rng(3);
  nn::Tensor q = nn::Tensor::Random({n, d}, rng);
  nn::Tensor k = nn::Tensor::Random({n, d}, rng);
  nn::Tensor v = nn::Tensor::Random({n, d}, rng);
  std::vector<float> mask(size_t(n * n), 0.f);
  for (auto _ : state) {
    nn::Tensor out = nn::MultiHeadAttention(q, k, v, mask, 4);
    nn::SumAll(out).Backward();
    benchmark::DoNotOptimize(q.grad());
  }
}
BENCHMARK(BM_MaskedAttentionBackward)->Arg(32)->Arg(64);

/// Fixture state shared by corpus-level benchmarks (built once).
struct Env {
  core::TurlContext ctx;
  Env() {
    core::ContextConfig config;
    config.corpus.num_tables = 500;
    ctx = core::BuildContext(config);
  }
};
Env* GlobalEnv() {
  static Env* env = new Env();
  return env;
}

void BM_Tokenize(benchmark::State& state) {
  Env* env = GlobalEnv();
  const text::WordPieceTokenizer tokenizer = env->ctx.MakeTokenizer();
  const std::string caption =
      env->ctx.corpus.tables[0].caption + " " +
      env->ctx.corpus.tables[1].caption;
  for (auto _ : state) {
    auto ids = tokenizer.Encode(caption);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_Tokenize);

void BM_EncodeTable(benchmark::State& state) {
  Env* env = GlobalEnv();
  const text::WordPieceTokenizer tokenizer = env->ctx.MakeTokenizer();
  for (auto _ : state) {
    core::EncodedTable encoded = core::EncodeTable(
        env->ctx.corpus.tables[0], tokenizer, env->ctx.entity_vocab);
    benchmark::DoNotOptimize(encoded.entity_ids.data());
  }
}
BENCHMARK(BM_EncodeTable);

void BM_BuildVisibilityMask(benchmark::State& state) {
  Env* env = GlobalEnv();
  const text::WordPieceTokenizer tokenizer = env->ctx.MakeTokenizer();
  core::EncodedTable encoded = core::EncodeTable(
      env->ctx.corpus.tables[0], tokenizer, env->ctx.entity_vocab);
  for (auto _ : state) {
    auto mask = core::BuildVisibilityMask(encoded);
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_BuildVisibilityMask);

void BM_ModelEncodeForward(benchmark::State& state) {
  Env* env = GlobalEnv();
  const text::WordPieceTokenizer tokenizer = env->ctx.MakeTokenizer();
  core::EncodedTable encoded = core::EncodeTable(
      env->ctx.corpus.tables[0], tokenizer, env->ctx.entity_vocab);
  core::TurlModel model(core::TurlConfig{}, env->ctx.vocab.size(),
                        env->ctx.entity_vocab.size(), 11);
  Rng rng(4);
  for (auto _ : state) {
    nn::Tensor hidden = model.Encode(encoded, false, &rng);
    benchmark::DoNotOptimize(hidden.data());
  }
}
BENCHMARK(BM_ModelEncodeForward);

void BM_LookupService(benchmark::State& state) {
  Env* env = GlobalEnv();
  static kb::LookupService* lookup =
      new kb::LookupService(&env->ctx.world.kb);
  const std::string mention = env->ctx.world.kb.entity(10).name;
  for (auto _ : state) {
    auto candidates = lookup->Lookup(mention, 50);
    benchmark::DoNotOptimize(candidates.data());
  }
}
BENCHMARK(BM_LookupService);

void BM_CorpusGeneration(benchmark::State& state) {
  Rng rng(5);
  kb::SyntheticKb world = kb::GenerateSyntheticKb(kb::KbGeneratorConfig{},
                                                  &rng);
  data::CorpusGeneratorConfig config;
  config.num_tables = 200;
  for (auto _ : state) {
    data::Corpus corpus = data::GenerateCorpus(world, config, &rng);
    benchmark::DoNotOptimize(corpus.tables.data());
  }
}
BENCHMARK(BM_CorpusGeneration);

// ---------------------------------------------------------------------------
// Direct naive-vs-kernel measurement written to BENCH_kernels.json.

using GemmFn = void (*)(int64_t, int64_t, int64_t, const float*, int64_t,
                        const float*, int64_t, float*, int64_t, bool);

double MeasureItemsPerSec(GemmFn fn, int64_t m, int64_t k, int64_t n) {
  Rng rng(17);
  nn::Tensor a = nn::Tensor::Random({m, k}, rng);
  nn::Tensor b = nn::Tensor::Random({k, n}, rng);
  std::vector<float> c(size_t(m * n));
  fn(m, n, k, a.data(), k, b.data(), n, c.data(), n, false);  // Warm-up.
  const double flops = double(m) * double(n) * double(k);
  // Enough iterations for ~0.2s of work assuming >= 0.5 GFLOP/s.
  int iters = static_cast<int>(1e8 / flops) + 1;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    fn(m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
    benchmark::DoNotOptimize(c.data());
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return flops * iters / dt.count();
}

/// One timed pass of the int8 scoring path over the m activation rows:
/// per-row activation quantization + integer GEMV (the pack itself is
/// amortized across a model's lifetime and stays outside the timing).
void Int8Pass(const nn::kernels::QuantizedMatrix& q, const float* a,
              int64_t m, int64_t k, int64_t n, int8_t* xq, float* y) {
  for (int64_t i = 0; i < m; ++i) {
    const float xs = nn::kernels::QuantizeActivation(a + i * k, k, q.stride,
                                                     xq);
    nn::kernels::QuantizedGemv(q, xq, xs, y + i * n, false);
  }
}

/// Items/sec of `fn` over C[m,n] = A[m,k] * B[n,k]^T — the orientation of
/// MatMulNT, i.e. the logits matmul: each output's weight row contiguous.
/// Best of kBenchReps timed blocks (applied identically to every variant)
/// so a host-load spike during one block doesn't skew a recorded ratio.
constexpr int kBenchReps = 3;

double MeasureNTItemsPerSec(GemmFn fn, int64_t m, int64_t k, int64_t n) {
  Rng rng(17);
  nn::Tensor a = nn::Tensor::Random({m, k}, rng);
  nn::Tensor b = nn::Tensor::Random({n, k}, rng);
  std::vector<float> c(size_t(m * n));
  fn(m, n, k, a.data(), k, b.data(), k, c.data(), n, false);  // Warm-up.
  const double flops = double(m) * double(n) * double(k);
  int iters = static_cast<int>(1e8 / flops) + 1;
  double best = 0.0;
  for (int rep = 0; rep < kBenchReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      fn(m, n, k, a.data(), k, b.data(), k, c.data(), n, false);
      benchmark::DoNotOptimize(c.data());
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    best = std::max(best, flops * iters / dt.count());
  }
  return best;
}

/// Elements/sec of `pass` over `elems` elements in each of kBenchReps
/// timed blocks of about 0.1 s: the best block, and the worst as the spread.
struct Rate {
  double best = 0.0, worst = 0.0;
};

template <typename Pass>
Rate MeasureElemsPerSec(const Pass& pass, int64_t elems) {
  pass();  // Warm-up.
  const auto t0 = std::chrono::steady_clock::now();
  pass();
  const std::chrono::duration<double> once =
      std::chrono::steady_clock::now() - t0;
  const int iters = static_cast<int>(0.1 / std::max(once.count(), 1e-7)) + 1;
  Rate rate;
  for (int rep = 0; rep < kBenchReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) pass();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    const double r = double(elems) * iters / dt.count();
    rate.best = std::max(rate.best, r);
    rate.worst = rep == 0 ? r : std::min(rate.worst, r);
  }
  return rate;
}

double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  double err = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, double(std::abs(a[i] - b[i])));
  }
  return err;
}

/// The "rowwise" block: each row kernel against its naive:: libm loop, on
/// one thread. GeLU runs over 64K N(0, 2) inputs (its backward with dy = 1
/// into dx = 0, so the error is the derivative's); the softmax rows are
/// 225 x 225, a bulk_wide attention matrix, the masked one at its 43%
/// visible density with the attention scale 1/sqrt(16).
void WriteRowwiseComparison(std::FILE* f) {
  namespace k = nn::kernels;
  Rng rng(29);
  const int64_t ng = 1 << 16;
  std::vector<float> x(static_cast<size_t>(ng)), dy(x.size(), 1.f);
  for (float& v : x) v = float(rng.Normal(0.0, std::sqrt(2.0)));
  std::vector<float> y(x.size()), want(x.size());
  std::vector<float> dx(x.size()), want_dx(x.size());

  const int64_t n = 225;
  std::vector<float> scores(static_cast<size_t>(n * n));
  std::vector<float> mask(scores.size());
  for (float& v : scores) v = float(rng.Normal(0.0, 4.0));
  for (float& v : mask) v = rng.UniformFloat(0.f, 1.f) < 0.43f ? 0.f : -1e9f;
  std::vector<float> p(scores.size()), want_p(scores.size());
  const float scale = 0.25f;

  struct Row {
    const char* name;
    int64_t m, n;
    Rate naive, kernel;
    double err;
  };
  std::vector<Row> rows;
  {
    const auto naive = [&] {
      k::naive::ActivationForward(k::Act::kGelu, x.data(), want.data(), ng);
    };
    const auto kernel = [&] {
      k::ActivationForward(k::Act::kGelu, x.data(), y.data(), ng);
    };
    rows.push_back({"gelu_forward", 1, ng, MeasureElemsPerSec(naive, ng),
                    MeasureElemsPerSec(kernel, ng), MaxAbsDiff(y, want)});
  }
  {
    // The timed passes accumulate into dx; the error pass starts from 0.
    const auto naive = [&] {
      k::naive::ActivationBackward(k::Act::kGelu, x.data(), want.data(),
                                   dy.data(), want_dx.data(), ng);
    };
    const auto kernel = [&] {
      k::ActivationBackward(k::Act::kGelu, x.data(), y.data(), dy.data(),
                            dx.data(), ng);
    };
    const Rate naive_rate = MeasureElemsPerSec(naive, ng);
    const Rate kernel_rate = MeasureElemsPerSec(kernel, ng);
    std::fill(dx.begin(), dx.end(), 0.f);
    std::fill(want_dx.begin(), want_dx.end(), 0.f);
    naive();
    kernel();
    rows.push_back({"gelu_backward", 1, ng, naive_rate, kernel_rate,
                    MaxAbsDiff(dx, want_dx)});
  }
  {
    const auto naive = [&] {
      k::naive::SoftmaxRowsForward(scores.data(), want_p.data(), n, n);
    };
    const auto kernel = [&] {
      k::SoftmaxRowsForward(scores.data(), p.data(), n, n);
    };
    rows.push_back({"softmax", n, n, MeasureElemsPerSec(naive, n * n),
                    MeasureElemsPerSec(kernel, n * n), MaxAbsDiff(p, want_p)});
  }
  {
    // The masked kernels work in place: each pass restarts from the scores.
    const auto naive = [&] {
      std::copy(scores.begin(), scores.end(), want_p.begin());
      k::naive::MaskedScaledSoftmaxRows(want_p.data(), mask.data(), scale, n,
                                        n);
    };
    const auto kernel = [&] {
      std::copy(scores.begin(), scores.end(), p.begin());
      k::MaskedScaledSoftmaxRows(p.data(), mask.data(), scale, n, n);
    };
    rows.push_back({"masked_softmax", n, n, MeasureElemsPerSec(naive, n * n),
                    MeasureElemsPerSec(kernel, n * n), MaxAbsDiff(p, want_p)});
  }
  bool first = true;
  for (const Row& r : rows) {
    const double speedup = r.kernel.best / r.naive.best;
    std::fprintf(f,
                 "%s    {\"kernel\": \"%s\", \"m\": %lld, \"n\": %lld, "
                 "\"naive_items_per_sec\": %.3e, "
                 "\"naive_worst_items_per_sec\": %.3e, "
                 "\"kernel_items_per_sec\": %.3e, "
                 "\"kernel_worst_items_per_sec\": %.3e, \"speedup\": %.2f, "
                 "\"max_abs_err\": %.4e}",
                 first ? "" : ",\n", r.name, static_cast<long long>(r.m),
                 static_cast<long long>(r.n), r.naive.best, r.naive.worst,
                 r.kernel.best, r.kernel.worst, speedup, r.err);
    std::fprintf(stderr,
                 "rowwise %s %lldx%lld: naive %.3e (worst %.3e) kernel %.3e "
                 "(worst %.3e) elem/s (speedup %.2fx, max err %.4e)\n",
                 r.name, static_cast<long long>(r.m),
                 static_cast<long long>(r.n), r.naive.best, r.naive.worst,
                 r.kernel.best, r.kernel.worst, speedup, r.err);
    first = false;
  }
}

void WriteKernelComparison(const char* path) {
  // Single-threaded by construction so the recorded speedup is the blocked
  // kernel's own, not the thread pool's.
  nn::kernels::SetKernelThreads(1);
  struct Case {
    int64_t m, k, n;
  };
  const Case cases[] = {{256, 256, 256}, {312, 768, 64}, {1, 768, 30522}};
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"threads\": 1,\n  \"gemm\": [\n");
  bool first = true;
  for (const Case& c : cases) {
    const double naive =
        MeasureItemsPerSec(nn::kernels::naive::GemmNN, c.m, c.k, c.n);
    const double kernel =
        MeasureItemsPerSec(nn::kernels::GemmNN, c.m, c.k, c.n);
    std::fprintf(f,
                 "%s    {\"m\": %lld, \"k\": %lld, \"n\": %lld, "
                 "\"naive_items_per_sec\": %.3e, "
                 "\"kernel_items_per_sec\": %.3e, \"speedup\": %.2f}",
                 first ? "" : ",\n", static_cast<long long>(c.m),
                 static_cast<long long>(c.k), static_cast<long long>(c.n),
                 naive, kernel, kernel / naive);
    std::fprintf(stderr,
                 "gemm %lldx%lldx%lld: naive %.3e kernel %.3e flop/s "
                 "(speedup %.2fx)\n",
                 static_cast<long long>(c.m), static_cast<long long>(c.k),
                 static_cast<long long>(c.n), naive, kernel, kernel / naive);
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"gemv\": [\n");

  // Logits-shaped GEMVs in the orientation MlmLogits/MerLogits actually
  // execute (MatMulNT: weight matrix [n, k] row-major, every output's
  // weight row contiguous): the full MLM vocab, the entity vocab, and the
  // small-batch (m=4) variant. Four paths per shape: the naive loops, the
  // 4x16 tiled GEMM forced past the small-m gate, the GEMV dispatch
  // (default), and the int8 quantized scorer — plus the int8 path's max
  // absolute error against the naive fp32 result.
  const Case gemv_cases[] = {{1, 768, 30522}, {1, 768, 4992}, {4, 768, 30522}};
  first = true;
  for (const Case& c : gemv_cases) {
    Rng rng(23);
    nn::Tensor a = nn::Tensor::Random({c.m, c.k}, rng);
    nn::Tensor b = nn::Tensor::Random({c.n, c.k}, rng);

    const double naive =
        MeasureNTItemsPerSec(nn::kernels::naive::GemmNT, c.m, c.k, c.n);
    nn::kernels::SetSmallMGemvDispatch(false);
    const double tiled = MeasureNTItemsPerSec(nn::kernels::GemmNT, c.m, c.k,
                                              c.n);
    nn::kernels::SetSmallMGemvDispatch(true);
    const double gemv = MeasureNTItemsPerSec(nn::kernels::GemmNT, c.m, c.k,
                                             c.n);

    // Row j of B is output unit j's weight vector (the embedding-table
    // layout the model packs).
    const nn::kernels::QuantizedMatrix q = nn::kernels::QuantizeRows(
        b.data(), c.n, c.k, /*row_stride=*/c.k, /*col_stride=*/1);
    std::vector<int8_t> xq(static_cast<size_t>(q.stride));
    std::vector<float> y(static_cast<size_t>(c.m * c.n));
    Int8Pass(q, a.data(), c.m, c.k, c.n, xq.data(), y.data());  // Warm-up.
    const double flops = double(c.m) * double(c.n) * double(c.k);
    const int iters = static_cast<int>(1e8 / flops) + 1;
    double int8 = 0.0;
    for (int rep = 0; rep < kBenchReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int it = 0; it < iters; ++it) {
        Int8Pass(q, a.data(), c.m, c.k, c.n, xq.data(), y.data());
        benchmark::DoNotOptimize(y.data());
      }
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - start;
      int8 = std::max(int8, flops * iters / dt.count());
    }

    std::vector<float> ref(static_cast<size_t>(c.m * c.n));
    nn::kernels::naive::GemmNT(c.m, c.n, c.k, a.data(), c.k, b.data(), c.k,
                               ref.data(), c.n, false);
    const double max_err = MaxAbsDiff(y, ref);

    std::fprintf(f,
                 "%s    {\"m\": %lld, \"k\": %lld, \"n\": %lld, "
                 "\"naive_items_per_sec\": %.3e, "
                 "\"tiled_items_per_sec\": %.3e, "
                 "\"gemv_items_per_sec\": %.3e, "
                 "\"int8_items_per_sec\": %.3e, "
                 "\"gemv_speedup\": %.2f, \"int8_speedup\": %.2f, "
                 "\"quant_max_abs_err\": %.4e}",
                 first ? "" : ",\n", static_cast<long long>(c.m),
                 static_cast<long long>(c.k), static_cast<long long>(c.n),
                 naive, tiled, gemv, int8, gemv / naive, int8 / naive,
                 max_err);
    std::fprintf(stderr,
                 "gemv %lldx%lldx%lld: naive %.3e tiled %.3e gemv %.3e "
                 "int8 %.3e flop/s (gemv %.2fx, int8 %.2fx, max err %.4e)\n",
                 static_cast<long long>(c.m), static_cast<long long>(c.k),
                 static_cast<long long>(c.n), naive, tiled, gemv, int8,
                 gemv / naive, int8 / naive, max_err);
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"rowwise\": [\n");
  WriteRowwiseComparison(f);
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  nn::kernels::SetKernelThreads(0);  // Restore env/default resolution.
}

}  // namespace

// Like BENCHMARK_MAIN(), plus an observability dump and the kernel-vs-naive
// comparison. Profiling stays in its default env-controlled state (off
// unless TURL_PROFILE=1) so the kernels are measured with only the
// disabled-check branch in the hot loops.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteKernelComparison("BENCH_kernels.json");
  turl::obs::WriteObsJson("BENCH_obs.json");
  return 0;
}
