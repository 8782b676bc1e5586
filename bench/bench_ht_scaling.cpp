// EBCOT vs HT (Part 15) block-coder scaling: the HT cleanup pass removes
// the Tier-1 arithmetic-coding bottleneck AND the whole PCRD rate stage
// (quantizer-based rate targeting needs no lambda scan), so the lossy
// speedup curve stays steep where the paper's Figure 5 flattens.
//
// Acceptance: >= 1.5x modeled wall speedup over the serial-tail EBCOT
// baseline on the lossy workload at 16 SPE + 2 PPE.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "jp2k/encoder.hpp"

namespace {

using namespace cj2k;

struct Config {
  const char* label;
  int spes, ppes, chips;
};

constexpr Config kConfigs[] = {
    {"1 SPE", 1, 0, 1},
    {"8 SPE", 8, 0, 1},
    {"16 SPE + 2 PPE (QS20)", 16, 2, 2},
};

jp2k::CodingParams make_params(jp2k::BlockCoder coder, bool lossy) {
  jp2k::CodingParams p;
  p.block_coder = coder;
  if (lossy) {
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
    p.rate = 0.1;
  }
  return p;
}

/// One EBCOT-vs-HT table; returns the HT speedup at the last (16-SPE)
/// config relative to the EBCOT column.  With `serial_tail` that column is
/// the paper's serial-tail baseline derived from the EBCOT run
/// (serial_tail_seconds), emitted to BENCH_JSON with sim_seconds alone;
/// otherwise it is the run's own simulated seconds.
double run_table(const Image& img, bool lossy, const char* json_suffix,
                 bool serial_tail, const char* ebcot_label) {
  cellenc::PipelineOptions opt;
  opt.audit.enabled = true;
  std::printf("  %s workload (%s):\n", lossy ? "Lossy" : "Lossless",
              lossy ? "9/7 float, rate=0.1" : "5/3 reversible");
  std::printf("  %-26s %12s %12s %9s\n", "configuration",
              ebcot_label, "ht", "ht gain");
  const jp2k::CodingParams pe = make_params(jp2k::BlockCoder::kEbcot, lossy);
  const jp2k::CodingParams ph = make_params(jp2k::BlockCoder::kHt, lossy);
  double last_gain = 0;
  for (const auto& cfg : kConfigs) {
    cellenc::CellEncoder enc(
        bench::machine_config(cfg.spes, cfg.ppes, cfg.chips));
    const auto re = enc.encode(img, pe, opt);
    const auto rh = enc.encode(img, ph, opt);
    const double ebcot_s =
        serial_tail ? re.serial_tail_seconds : re.simulated_seconds;
    last_gain = ebcot_s / rh.simulated_seconds;
    std::printf("  %-26s %10.4f s %10.4f s   %6.2fx\n", cfg.label, ebcot_s,
                rh.simulated_seconds, last_gain);
    bench::emit_json("ht_scaling",
                     std::string(cfg.label) + " ebcot " + json_suffix,
                     ebcot_s, serial_tail ? nullptr : &re);
    bench::emit_json("ht_scaling",
                     std::string(cfg.label) + " ht " + json_suffix,
                     rh.simulated_seconds, &rh);
  }
  std::printf("\n");
  return last_gain;
}

void run_figure(const bench::Workload& wl) {
  bench::print_header(
      "HT (Part 15) vs EBCOT block-coder scaling",
      "beyond the paper; removes the Fig. 5 rate-stage bottleneck");
  const Image img = bench::paper_image(wl);
  std::printf("  Workload: synthetic photo %zux%zu RGB, 5 levels\n\n",
              img.width(), img.height());

  const double gain_vs_serial =
      run_table(img, /*lossy=*/true, "lossy serial-tail",
                /*serial_tail=*/true, "ebcot serial");
  const double gain_vs_overlap =
      run_table(img, /*lossy=*/true, "lossy overlapped-tail",
                /*serial_tail=*/false, "ebcot overlap");
  run_table(img, /*lossy=*/false, "lossless", /*serial_tail=*/false, "ebcot");

  std::printf(
      "  HT removes both serial residues at once: Tier-1 drops from ~4 MQ\n"
      "  symbols/sample to one cleanup pass, and rate targeting moves into\n"
      "  the quantizer, so no lambda scan runs at all.  Gain at 16 SPE +\n"
      "  2 PPE: %.2fx vs the paper's serial-tail baseline, %.2fx vs the\n"
      "  overlapped tail (acceptance floor: 1.5x vs serial-tail).\n",
      gain_vs_serial, gain_vs_overlap);
}

void BM_HtEncode8Spe(benchmark::State& state) {
  const Image img = synth::photographic(512, 512, 3, 1);
  jp2k::CodingParams p = make_params(jp2k::BlockCoder::kHt, /*lossy=*/true);
  cellenc::CellEncoder enc(bench::machine_config(8, 1));
  for (auto _ : state) {
    auto res = enc.encode(img, p);
    benchmark::DoNotOptimize(res.codestream.data());
    state.counters["sim_seconds"] = res.simulated_seconds;
  }
}
BENCHMARK(BM_HtEncode8Spe)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_figure(cj2k::bench::parse_workload(argc, argv));
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
