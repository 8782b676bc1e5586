// Ablation B: 32x32 vs 64x64 code blocks (paper §3.2).  Muta et al. chose
// 32x32 to fit double buffering in the Local Store; the paper argues the
// 4x increase in PPE<->SPE interactions hurts scalability and uses 64x64.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/mq_encoder.hpp"
#include "jp2k/t1_encoder.hpp"

namespace {

using namespace cj2k;

void run_ablation(const bench::Workload& wl) {
  bench::print_header("Ablation B — 32x32 vs 64x64 code blocks",
                      "§3.2: smaller blocks = more queue interactions, less"
                      " Local Store pressure");
  const Image img = bench::paper_image(wl);

  jp2k::CodingParams p;
  std::printf("  %-14s %10s %12s %14s %16s\n", "block size", "blocks",
              "t1 sim", "sim total", "LS block bytes");
  for (std::size_t cb : {16u, 32u, 64u}) {
    p.cb_width = cb;
    p.cb_height = cb;
    cellenc::CellEncoder enc(bench::machine_config(8, 1));
    const auto res = enc.encode(img, p);
    // Count blocks the way the T1 queue sees them.
    std::size_t blocks = 0;
    for (const auto& info :
         jp2k::subband_layout(img.width(), img.height(), p.levels)) {
      blocks += ceil_div(info.w, cb) * ceil_div(info.h, cb);
    }
    blocks *= img.components();
    std::printf("  %3zux%-10zu %10zu %10.4f s %10.4f s %12zu\n", cb, cb,
                blocks, res.stage_seconds("tier1"), res.simulated_seconds,
                cb * cb * sizeof(Sample));
    char jlabel[32];
    std::snprintf(jlabel, sizeof(jlabel), "%zux%zu", cb, cb);
    bench::emit_json("ablation_codeblock", jlabel, res.simulated_seconds,
                     &res);
  }
  std::printf("\n  64x64 blocks keep the queue coarse (fewer interactions);"
              " a 64x64 block of int32 coefficients is 16 KB, still far\n"
              "  below the 256 KB Local Store, so the paper's choice costs"
              " nothing in fit.\n");
}

/// A cb x cb block of level-shifted photographic samples, the content both
/// block microbenchmarks code.
std::vector<Sample> photographic_block(std::size_t cb) {
  const Image img = synth::photographic(cb, cb, 1, 3);
  std::vector<Sample> block(cb * cb);
  for (std::size_t y = 0; y < cb; ++y) {
    for (std::size_t x = 0; x < cb; ++x) {
      block[y * cb + x] = img.plane(0).at(y, x) - 128;
    }
  }
  return block;
}

/// Wall nanoseconds since `t0`.
double ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sets the EBCOT benches' counters: items/s counts samples, ns_per_symbol
/// divides the wall time by the MQ decisions of one block.
void t1_counters(benchmark::State& state, std::size_t cb, double ns,
                 std::uint64_t symbols) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cb * cb));
  state.counters["ns_per_symbol"] =
      ns / (static_cast<double>(state.iterations()) *
            static_cast<double>(symbols));
}

// Host cost of one EBCOT block encode, per orientation (the ZC table
// differs per band).  Single runs of it spread widely on a shared host, so
// it runs repeated and reports aggregates: compare medians.
void BM_T1Block(benchmark::State& state) {
  const auto cb = static_cast<std::size_t>(state.range(0));
  const auto orient = static_cast<jp2k::SubbandOrient>(state.range(1));
  const std::vector<Sample> block = photographic_block(cb);
  std::uint64_t symbols = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto enc = jp2k::t1_encode_block(
        Span2d<const Sample>(block.data(), cb, cb), orient);
    benchmark::DoNotOptimize(enc.data.data());
    symbols = enc.total_symbols;
  }
  t1_counters(state, cb, ns_since(t0), symbols);
}
BENCHMARK(BM_T1Block)
    ->ArgsProduct({{16, 32, 64}, {0, 1, 2, 3}})
    ->ArgNames({"cb", "orient"})
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

// The two halves of BM_T1Block on 64x64 blocks.  BM_T1Model runs the
// context-modelling loops alone (it also copies each pass's symbols out of
// the buffer); BM_MqCode runs the MQ loop over the recorded symbols of the
// same block.
void BM_T1Model(benchmark::State& state) {
  const std::size_t cb = 64;
  const auto orient = static_cast<jp2k::SubbandOrient>(state.range(0));
  const std::vector<Sample> block = photographic_block(cb);
  std::uint64_t symbols = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto sym = jp2k::t1_model_block(
        Span2d<const Sample>(block.data(), cb, cb), orient);
    benchmark::DoNotOptimize(sym.bytes.data());
    benchmark::ClobberMemory();
    symbols = sym.bytes.size();
  }
  t1_counters(state, cb, ns_since(t0), symbols);
}
BENCHMARK(BM_T1Model)
    ->DenseRange(0, 3)
    ->ArgName("orient")
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

void BM_MqCode(benchmark::State& state) {
  const std::size_t cb = 64;
  const auto orient = static_cast<jp2k::SubbandOrient>(state.range(0));
  const std::vector<Sample> block = photographic_block(cb);
  const jp2k::T1Symbols sym = jp2k::t1_model_block(
      Span2d<const Sample>(block.data(), cb, cb), orient);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    jp2k::MqEncoder mq;
    jp2k::T1ContextBank ctx;
    std::size_t at = 0;
    for (const std::size_t n : sym.pass_sizes) {
      mq.code({sym.bytes.data() + at, n}, ctx.data());
      at += n;
    }
    mq.flush();
    benchmark::DoNotOptimize(mq.bytes().data());
    benchmark::ClobberMemory();
  }
  t1_counters(state, cb, ns_since(t0), sym.bytes.size());
}
BENCHMARK(BM_MqCode)
    ->DenseRange(0, 3)
    ->ArgName("orient")
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

// Host cost of one HT block encode on the same content: ns_per_sample
// divides the wall time by the samples coded (HT's cost-model unit).
void BM_HtBlock(benchmark::State& state) {
  const auto cb = static_cast<std::size_t>(state.range(0));
  const std::vector<Sample> block = photographic_block(cb);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto enc =
        jp2k::ht_encode_block(Span2d<const Sample>(block.data(), cb, cb));
    benchmark::DoNotOptimize(enc.data.data());
  }
  const double ns = ns_since(t0);
  const auto samples = static_cast<std::int64_t>(state.iterations()) *
                       static_cast<std::int64_t>(cb * cb);
  state.SetItemsProcessed(samples);
  state.counters["ns_per_sample"] = ns / static_cast<double>(samples);
}
BENCHMARK(BM_HtBlock)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->ArgName("cb")
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  run_ablation(cj2k::bench::parse_workload(argc, argv));
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
