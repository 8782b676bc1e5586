// Benchmark binary for one workload of the cellj2k encoder.
//
// It generates the workload's inputs from --seed, runs the phases below,
// checks every output, and prints one line
//
//   PERFBENCH_RAW {...}
//
// holding the raw samples (per-operation wall seconds, simulated seconds,
// counters, check tallies).  run.py turns those samples into the metrics;
// all statistics live there so they can be self-tested.
//
// Phases, all closed-loop on one client thread:
//   prep      inputs written as BMP files; the serial jp2k::encode oracle
//             and a decode of it (bytes per pixel, PSNR, exactness)
//   setup     construct the encoder or service and run the first operation,
//             several times
//   measured  for --seconds, a native-backend operation alternating with a
//             Cell-model one (simulated seconds come from the latter)
//   traced    --trace 1 only: operations rebuilt from the public stage entry
//             points with a span around each layer call, plus the
//             cell.dispatch probe; spans go to --trace-out as Chrome
//             trace-event JSON
//
// Layers are only timed from outside, around calls into the public
// functions of image, cell, cellenc, jp2k and service.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/machine.hpp"
#include "cellenc/kernels.hpp"
#include "cellenc/pipeline.hpp"
#include "cellenc/stage_dwt.hpp"
#include "cellenc/stage_mct.hpp"
#include "cellenc/stage_quant.hpp"
#include "cellenc/stage_rate.hpp"
#include "cellenc/stage_t1.hpp"
#include "cellenc/stage_tile.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "decomp/chunk.hpp"
#include "image/bmp.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/tile_grid.hpp"
#include "service/encode_service.hpp"
#include "service/spe_pool.hpp"

namespace {

using namespace cj2k;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

// --- Command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 20080901;  ///< The image seed.
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;

  /// Derived so that the default seed gives the default arrival seed.
  std::uint64_t arrival_seed() const { return seed ^ 20080901 ^ 0xC0FFEE; }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw Error("unknown option " + k);
  }
  CJ2K_CHECK_MSG(!a.workload.empty(), "--workload is required");
  return a;
}

/// Operations in the traced pass; per-layer values are their medians.
constexpr int kTracedOps = 3;

// --- Output checks ----------------------------------------------------------

/// Tally of checked operations.  A failed check is recorded, never thrown:
/// the run goes on and the failure shows in fail_ratio.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< The first few failure reasons.

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (notes.size() < 8) notes.push_back(what);
    }
  }
};

std::string sha(const std::vector<std::uint8_t>& bytes) {
  return common::sha256_hex(bytes);
}

/// PSNR of a decode against its source, capped at 100 dB so an exact
/// (lossless) decode reports a finite number.
double capped_psnr(const Image& src, const Image& dec) {
  if (metrics::identical(src, dec)) return 100.0;
  return std::min(100.0, metrics::psnr(src, dec));
}

// --- Spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double t0 = 0;
  double t1 = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 for an op root.
  int op = 0;
};

/// Spans kept in memory and written out once, at exit.
class SpanLog {
 public:
  int begin(const std::string& name, int parent, int op) {
    spans_.push_back({name, now_s(), 0.0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].t1 = now_s(); }

  void write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.t0 * 1e6,
                    (s.t1 - s.t0) * 1e6, i, s.parent, s.op);
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name, int parent, int op)
      : log_(log), id_(log ? log->begin(name, parent, op) : -1) {}
  ~Scoped() {
    if (log_) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- Raw output -------------------------------------------------------------

/// Flat JSON object writer for the PERFBENCH_RAW line.
class Raw {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    field(k, q + "\"");
  }
  void list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    field(k, s + "]");
  }
  void map(const std::string& k, const std::map<std::string, double>& m) {
    std::string s = "{";
    char buf[64];
    for (const auto& [name, v] : m) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      s += (s.size() > 1 ? ",\"" : "\"") + name + "\":" + buf;
    }
    field(k, s + "}");
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
  }
  std::string body_;
};

struct Rusage {
  double user = 0, sys = 0, ctx = 0;
};

Rusage rusage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  r.sys = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  r.ctx = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/// Samples of the measured phase.
struct Timed {
  std::vector<double> native;  ///< Wall seconds of each native operation.
  std::vector<double> model;   ///< Wall seconds of each Cell-model one.
  Rusage native_ru;            ///< getrusage deltas summed over native ops.
};

/// The measured phase: closed-loop, alternating a native-backend and a
/// Cell-model operation, until `seconds` have passed and at least three of
/// each ran.  Alternating makes both backends see the same host conditions.
template <typename NativeOp, typename ModelOp>
Timed measure(double seconds, NativeOp&& native_op, ModelOp&& model_op) {
  Timed t;
  const double t_end = now_s() + seconds;
  while (t.model.size() < 3 || now_s() < t_end) {
    const Rusage r0 = rusage_now();
    double t0 = now_s();
    native_op();
    t.native.push_back(now_s() - t0);
    const Rusage r1 = rusage_now();
    t.native_ru.user += r1.user - r0.user;
    t.native_ru.sys += r1.sys - r0.sys;
    t.native_ru.ctx += r1.ctx - r0.ctx;
    t0 = now_s();
    model_op();
    t.model.push_back(now_s() - t0);
  }
  return t;
}

// --- Simulated-machine figures ----------------------------------------------

/// Legal metric name of a simulated stage ("levelshift+mct" -> "mct").
std::string stage_key(const std::string& name) {
  if (name.rfind("levelshift", 0) == 0) return "mct";
  if (name.rfind("quant", 0) == 0) return "quant";
  if (name.rfind("dwt", 0) == 0) return "dwt";
  return name;
}

/// sim.* figures summed over one or more Cell-model pipeline results.
std::map<std::string, double> sim_figures(
    const std::vector<const cellenc::PipelineResult*>& runs) {
  std::map<std::string, double> m;
  for (const char* s : {"read", "mct", "dwt", "quant", "tier1", "rate", "t2"}) {
    m[std::string("sim.stage.") + s + ".seconds"] = 0.0;
  }
  double t1_busy = 0;
  double t1_queue_empty = 0;
  double dma_bytes = 0;
  double symbols = 0;
  for (const auto* r : runs) {
    for (const auto& st : r->stages) {
      m["sim.stage." + stage_key(st.name) + ".seconds"] += st.seconds;
      if (st.name == "tier1") {
        t1_busy += st.stall.busy;
        t1_queue_empty += st.stall.queue_empty;
      }
    }
    dma_bytes += static_cast<double>(r->dma_bytes);
    symbols += static_cast<double>(r->t1_symbols);
  }
  const double t1 = m["sim.stage.tier1.seconds"];
  m["sim.stage.tier1.occupancy"] = t1 > 0 ? t1_busy / t1 : 0.0;
  m["sim.stage.tier1.stall.queue_empty"] = t1_queue_empty;
  m["sim.dma.bytes"] = dma_bytes;
  m["sim.t1.symbols"] = symbols;
  return m;
}

// --- Layer probes -----------------------------------------------------------

/// The pipeline's read stage rebuilt from public entry points (it is
/// private to cellenc/pipeline.cpp): each SPE streams its column chunk of
/// every row of every plane through two Local Store buffers as a fenced
/// tagged get->put chain and drains once at the end; the PPE copies the
/// remainder and is charged the same stream bookkeeping.  Its simulated
/// seconds therefore equal the pipeline's stage.read.seconds.
cell::StageTiming copy_planes(cell::Machine& m, const Image& img,
                              std::vector<Plane>& work,
                              std::uint64_t& dma_commands) {
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  work.clear();
  for (std::size_t c = 0; c < img.components(); ++c) work.emplace_back(w, h);
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    Sample* buf[2] = {ctx.ls.alloc<Sample>(ch.width),
                      ctx.ls.alloc<Sample>(ch.width)};
    std::size_t k = 0;
    for (std::size_t c = 0; c < img.components(); ++c) {
      for (std::size_t y = 0; y < h; ++y, ++k) {
        const unsigned t = static_cast<unsigned>(k & 1);
        cellenc::dma_getf_row_tagged(ctx.dma, buf[t],
                                     img.plane(c).row(y) + ch.x0, ch.width, t);
        cellenc::dma_putf_row_tagged(ctx.dma, buf[t],
                                     work[c].row(y) + ch.x0, ch.width, t);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };
  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    for (std::size_t cc = 0; cc < img.components(); ++cc) {
      for (std::size_t y = 0; y < h; ++y) {
        if (rem.width > 0) {
          std::copy_n(img.plane(cc).row(y) + rem.x0, rem.width,
                      work[cc].row(y) + rem.x0);
        }
      }
    }
    c.s_int += static_cast<std::uint64_t>(rem.width) * h * img.components() *
                   2 +
               h * img.components() * 64;
  };
  cell::StageTiming t = m.run_data_parallel("read", spe_work, ppe_work);
  dma_commands = 0;
  for (int i = 0; i < m.num_spes(); ++i) {
    dma_commands += m.spe(i).counters.dma_tagged_transfers;
  }
  return t;
}

/// Host seconds of `reps` empty run_data_parallel calls at `cfg`'s width,
/// after one untimed call.
std::vector<double> dispatch_probe(const cell::MachineConfig& cfg, int reps) {
  cell::Machine m(cfg);
  auto nop = [](int, cell::SpeContext&) {};
  m.run_data_parallel("dispatch", nop);
  std::vector<double> w;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    m.run_data_parallel("dispatch", nop);
    w.push_back(now_s() - t0);
  }
  return w;
}

/// One component's tile skeleton as encode_tile_front builds it: subbands,
/// quantizer steps and code-block grids.
jp2k::TileComponent tile_component(std::size_t w, std::size_t h,
                                   const jp2k::CodingParams& p) {
  const bool lossy = p.wavelet != jp2k::WaveletKind::kReversible53;
  jp2k::TileComponent tc;
  for (const auto& info : jp2k::subband_layout(w, h, p.levels)) {
    jp2k::Subband sb;
    sb.info = info;
    sb.quant_step =
        lossy ? jp2k::quant_step_for_band(jp2k::effective_base_quant_step(p),
                                          p.wavelet, info.level, info.orient,
                                          p.levels)
              : 1.0;
    jp2k::make_block_grid(sb, p.cb_width, p.cb_height);
    tc.subbands.push_back(std::move(sb));
  }
  return tc;
}

/// Per traced operation: what the stage calls returned beyond their spans.
struct TracedCounts {
  std::uint64_t dma_commands = 0;
  double copy_sim_s = 0;
  double t1_symbols = 0;
  double t1_blocks = 0;
};

/// One single-tile encode rebuilt from the public stage entry points, in the
/// order encode_tile_front + CellEncoder::encode call them, with a span
/// around each layer call.  The codestream must equal CellEncoder's.
std::vector<std::uint8_t> traced_encode(cell::Machine& m,
                                        const std::string& path,
                                        const jp2k::CodingParams& params,
                                        const backend::KernelBackend& bk,
                                        SpanLog* log, int parent, int op,
                                        TracedCounts& counts) {
  CJ2K_CHECK_MSG(!params.fixed_point_97 && params.tiles_x == 1 &&
                     params.tiles_y == 1,
                 "traced_encode covers single-tile float/integer paths");
  Image img;
  {
    Scoped s(log, "image.read", parent, op);
    img = bmp::read(path);
  }
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const std::size_t ncomp = img.components();
  const bool color = params.mct && ncomp >= 3;
  const unsigned depth = img.bit_depth();

  jp2k::Tile tile;
  tile.width = w;
  tile.height = h;
  tile.levels = params.levels;
  tile.layers = params.layers;
  tile.progression = static_cast<int>(params.progression);

  std::vector<Plane> work;
  {
    Scoped s(log, "cell.copy", parent, op);
    counts.copy_sim_s = copy_planes(m, img, work, counts.dma_commands).seconds;
  }

  std::vector<Span2d<const Sample>> coeff;
  std::vector<Plane> qplanes;
  std::vector<AlignedBuffer<float>> fplanes;
  if (params.wavelet == jp2k::WaveletKind::kReversible53) {
    {
      Scoped s(log, "cellenc.mct", parent, op);
      cellenc::stage_mct_lossless(m, work, color, depth, bk);
    }
    {
      Scoped s(log, "cellenc.dwt", parent, op);
      for (std::size_t c = 0; c < ncomp; ++c) {
        cellenc::stage_dwt53(m, work[c].view(), params.levels, {}, bk);
      }
    }
    for (std::size_t c = 0; c < ncomp; ++c) {
      tile.components.push_back(tile_component(w, h, params));
      coeff.push_back(work[c].view());
    }
  } else {
    const std::size_t stride = work[0].stride();
    for (std::size_t c = 0; c < ncomp; ++c) fplanes.emplace_back(stride * h);
    {
      Scoped s(log, "cellenc.mct", parent, op);
      cellenc::stage_mct_lossy(m, work, fplanes, stride, color, depth, bk);
    }
    {
      Scoped s(log, "cellenc.dwt", parent, op);
      for (std::size_t c = 0; c < ncomp; ++c) {
        cellenc::stage_dwt97(m, Span2d<float>(fplanes[c].data(), w, h, stride),
                             params.levels, {}, bk);
      }
    }
    for (std::size_t c = 0; c < ncomp; ++c) {
      tile.components.push_back(tile_component(w, h, params));
    }
    qplanes.reserve(ncomp);
    {
      Scoped s(log, "cellenc.quant", parent, op);
      for (std::size_t c = 0; c < ncomp; ++c) {
        qplanes.emplace_back(w, h);
        cellenc::stage_quant(
            m, Span2d<const float>(fplanes[c].data(), w, h, stride),
            qplanes[c].view(), tile.components[c], bk);
        coeff.push_back(qplanes[c].view());
      }
    }
  }

  const bool tail = jp2k::uses_pcrd_rate_control(params);
  cellenc::HullCapture hulls;
  hulls.wavelet = params.wavelet;
  {
    Scoped s(log, "cellenc.t1", parent, op);
    const cellenc::T1StageResult t1 = cellenc::stage_t1(
        m, tile, coeff, cellenc::T1Distribution::kWorkQueue, params.t1,
        tail ? &hulls : nullptr, params.block_coder, bk);
    counts.t1_symbols = static_cast<double>(t1.total_symbols);
    counts.t1_blocks = static_cast<double>(t1.total_blocks);
  }
  if (tail) {
    Scoped s(log, "cellenc.rate_tail", parent, op);
    return cellenc::stage_rate_tail(m, tile, img, params, hulls).codestream;
  }
  Scoped s(log, "jp2k.finish_tile", parent, op);
  return jp2k::finish_tile(tile, img, params);
}

/// Reads the image and encodes it through the tile scheduler, for the tiled
/// service shape; the scheduler call is one span.
std::vector<std::uint8_t> traced_tiled(cell::Machine& m,
                                       const std::string& path,
                                       const jp2k::CodingParams& params,
                                       SpanLog* log, int parent, int op) {
  Image img;
  {
    Scoped s(log, "image.read", parent, op);
    img = bmp::read(path);
  }
  Scoped s(log, "cellenc.stage_tile", parent, op);
  cellenc::PipelineOptions opt;
  opt.backend = backend::BackendKind::kNative;
  const jp2k::TileGrid grid = jp2k::TileGrid::plan(
      img.width(), img.height(), params.tiles_x, params.tiles_y);
  return cellenc::encode_tiled(m, img, params, opt, grid).codestream;
}

// --- Workloads --------------------------------------------------------------

/// Content seed of the repository's bench photograph; workload images are
/// fixed photographs from this seed on, so every run encodes the same kind
/// of content.
constexpr std::uint64_t kContentSeed = 20080901;

/// A workload input: the photograph with content seed `content_seed`,
/// cyclically shifted by an offset drawn from `rng` (the run's image seed).
/// The shift changes every code block's bytes but hardly the image's
/// statistics, so runs with different seeds do comparable work.
Image shifted_photo(std::size_t w, std::size_t h, std::uint64_t content_seed,
                    Rng& rng) {
  const Image base = synth::photographic(w, h, 3, content_seed);
  const std::size_t dx = rng.next_below(w);
  const std::size_t dy = rng.next_below(h);
  Image out(w, h, 3, base.bit_depth());
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      const Sample* src = base.plane(c).row((y + dy) % h);
      Sample* dst = out.plane(c).row(y);
      for (std::size_t x = 0; x < w; ++x) dst[x] = src[(x + dx) % w];
    }
  }
  return out;
}

/// Everything a workload run reports; printed as PERFBENCH_RAW.
struct Report {
  Raw raw;
  Checks checks;
  SpanLog spans;
  std::map<std::string, double> layers;  ///< Per-layer probe values.
};

cellenc::PipelineOptions backend_opt(backend::BackendKind kind) {
  cellenc::PipelineOptions o;
  o.backend = kind;
  return o;
}

void put_timed(Report& rep, const Timed& t) {
  rep.raw.list("op_wall_s", t.native);
  rep.raw.list("model_wall_s", t.model);
  rep.raw.num("timed_user_s", t.native_ru.user);
  rep.raw.num("timed_sys_s", t.native_ru.sys);
  rep.raw.num("timed_ctx_switches", t.native_ru.ctx);
}

// Single-image encode workloads: read a BMP, CellEncoder::encode it.
void run_encode(const Args& a, const jp2k::CodingParams& params,
                Report& rep) {
  const std::size_t W = 1586, H = 1558;
  cell::MachineConfig cfg;
  cfg.num_spes = 8;
  cfg.num_ppe_threads = 1;
  cfg.chips = 1;
  // One input file per workload, rewritten by every run.
  const std::string path = a.work_dir + "/" + a.workload + ".bmp";
  Rng rng(a.seed);
  bmp::write(path, shifted_photo(W, H, kContentSeed, rng));
  const Image src = bmp::read(path);
  const double mpix = static_cast<double>(W * H) / 1e6;

  // Prep: the serial oracle and a decode of it.
  double t0 = now_s();
  const std::vector<std::uint8_t> oracle = jp2k::encode(src, params);
  rep.layers["jp2k.encode.wall_s"] = now_s() - t0;
  const std::string want = sha(oracle);
  t0 = now_s();
  const Image dec = jp2k::decode(oracle);
  rep.layers["jp2k.decode.wall_s"] = now_s() - t0;
  const bool lossless = params.wavelet == jp2k::WaveletKind::kReversible53;
  const double psnr = capped_psnr(src, dec);
  rep.checks.record(lossless ? metrics::identical(src, dec) : psnr > 20.0,
                    lossless ? "lossless decode is not exact"
                             : "lossy decode PSNR below 20 dB");
  rep.raw.num("bpp", static_cast<double>(oracle.size()) * 8.0 / (W * H));
  rep.raw.num("psnr_db", psnr);
  rep.raw.num("mpix_per_op", mpix);

  auto check = [&](const std::vector<std::uint8_t>& cs, const char* what) {
    rep.checks.record(sha(cs) == want,
                      std::string(what) + " codestream differs from oracle");
  };
  const auto native = backend_opt(backend::BackendKind::kNative);
  const auto model = backend_opt(backend::BackendKind::kCellModel);

  // Setup: construction plus the first, untimed operation; setup_s is the
  // median of these.
  std::unique_ptr<cellenc::CellEncoder> enc;
  std::vector<double> setup;
  for (int r = 0; r < 5; ++r) {
    t0 = now_s();
    enc = std::make_unique<cellenc::CellEncoder>(cfg);
    const auto res = enc->encode(bmp::read(path), params, native);
    setup.push_back(now_s() - t0);
    check(res.codestream, "setup");
  }
  rep.raw.list("setup_s", setup);

  // Measured phase, tracing off: native and Cell-model operations
  // alternate; simulated seconds must repeat exactly.
  cellenc::CellEncoder menc(cfg);
  cellenc::PipelineResult last = menc.encode(src, params, model);  // Warm-up.
  check(last.codestream, "cell-model");
  std::vector<double> sims;
  const Timed timed = measure(
      a.seconds,
      [&] {
        const auto res = enc->encode(bmp::read(path), params, native);
        check(res.codestream, "native");
      },
      [&] {
        last = menc.encode(bmp::read(path), params, model);
        sims.push_back(last.simulated_seconds);
        check(last.codestream, "cell-model");
      });
  put_timed(rep, timed);
  rep.raw.list("sim_s", sims);
  rep.raw.list("sim_p99_s", sims);  // Every operation is alike.
  for (const auto& [k, v] : sim_figures({&last})) rep.layers[k] = v;

  if (!a.trace) return;
  // Traced pass: same inputs, stage entry points, native backend.
  cellenc::CellEncoder tenc(cfg);
  const auto& bk = backend::get(backend::BackendKind::kNative);
  TracedCounts counts;
  for (int op = 0; op < kTracedOps; ++op) {
    std::vector<std::uint8_t> cs;
    {
      Scoped root(&rep.spans, "op", -1, op);
      cs = traced_encode(tenc.machine(), path, params, bk, &rep.spans,
                         root.id(), op, counts);
    }
    check(cs, "traced");
    rep.checks.record(counts.copy_sim_s == rep.layers["sim.stage.read.seconds"],
                      "cell.copy simulated seconds differ from stage read");
  }
  rep.layers["cell.copy.dma_commands"] =
      static_cast<double>(counts.dma_commands);
  rep.layers["cell.copy.sim_s"] = counts.copy_sim_s;
  rep.layers["cellenc.t1.symbols"] = counts.t1_symbols;
  rep.layers["cellenc.t1.blocks"] = counts.t1_blocks;
  rep.raw.list("dispatch_s", dispatch_probe(cfg, 30));
}

/// Deterministic exponential interarrival times at `rate` jobs per second.
std::vector<double> arrivals(std::size_t n, double rate, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> t(n);
  double clock = 0;
  for (std::size_t i = 0; i < n; ++i) {
    clock += -std::log1p(-rng.next_double()) / rate;
    t[i] = clock;
  }
  return t;
}

// Encode-service workload: batches of concurrent mixed jobs.
void run_service(const Args& a, Report& rep) {
  // Job i has shape i % 4 and image i % 6: twelve distinct (shape, image)
  // pairs, each image under two shapes.
  constexpr std::size_t kJobs = 24, kImages = 6, kW = 640, kH = 512;
  // A burst: arrivals far above the pool's capacity (~100 jobs/s at this
  // size) all land within a few simulated milliseconds, so the makespan and
  // the tail latency measure the pool, not the arrival process.
  constexpr double kArrivalRate = 2000.0;
  std::vector<jp2k::CodingParams> shapes(4);
  shapes[1].wavelet = jp2k::WaveletKind::kIrreversible97;  // lossy HT
  shapes[1].rate = 0.25;
  shapes[1].block_coder = jp2k::BlockCoder::kHt;
  shapes[2].wavelet = jp2k::WaveletKind::kIrreversible97;  // lossy EBCOT
  shapes[2].rate = 0.25;
  shapes[3].tiles_x = 2;  // tiled 2x2 lossless
  shapes[3].tiles_y = 2;
  const char* shape_names[] = {"lossless", "lossy_ht", "lossy", "tiled2x2"};

  service::ServiceOptions sopt;
  sopt.machine.num_spes = 16;
  sopt.machine.num_ppe_threads = 2;
  sopt.machine.chips = 2;
  sopt.group_spes = 8;
  sopt.host_threads = 2;
  sopt.policy = service::SchedulePolicy::kThroughput;
  const cell::MachineConfig lease =
      service::SpePool(sopt.machine, sopt.group_spes).lease_config(1);

  std::vector<std::string> paths;
  std::vector<Image> srcs;
  Rng rng(a.seed);
  for (std::size_t k = 0; k < kImages; ++k) {
    paths.push_back(a.work_dir + "/service_mix_" + std::to_string(k) +
                    ".bmp");
    bmp::write(paths.back(), shifted_photo(kW, kH, kContentSeed + k, rng));
    srcs.push_back(bmp::read(paths.back()));
  }
  const std::vector<double> arr = arrivals(kJobs, kArrivalRate, a.arrival_seed());
  auto shape_of = [&](std::size_t i) { return i % shapes.size(); };
  auto image_of = [&](std::size_t i) { return i % kImages; };
  auto pair_of = [&](std::size_t i) {
    return shape_of(i) * kImages + image_of(i);
  };

  // Prep per distinct (shape, image): oracle, decode, standalone wall.
  const std::size_t npairs = shapes.size() * kImages;
  std::vector<bool> seen(npairs);
  std::vector<std::string> want(npairs);
  std::vector<double> psnr(npairs), bytes(npairs), alone(npairs);
  double oracle_s = 0, decode_s = 0;
  const auto native = backend_opt(backend::BackendKind::kNative);
  cellenc::CellEncoder solo(lease);  // Standalone runs, warmed once.
  solo.encode(srcs[0], shapes[0], native);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const std::size_t p = pair_of(i), s = shape_of(i), k = image_of(i);
    if (seen[p]) continue;
    seen[p] = true;
    double t0 = now_s();
    const auto cs = jp2k::encode(srcs[k], shapes[s]);
    oracle_s += now_s() - t0;
    want[p] = sha(cs);
    bytes[p] = static_cast<double>(cs.size());
    t0 = now_s();
    const Image dec = jp2k::decode(cs);
    decode_s += now_s() - t0;
    psnr[p] = capped_psnr(srcs[k], dec);
    const bool lossless =
        shapes[s].wavelet == jp2k::WaveletKind::kReversible53;
    rep.checks.record(
        lossless ? metrics::identical(srcs[k], dec) : psnr[p] > 20.0,
        std::string(shape_names[s]) + " decode check failed");
    t0 = now_s();
    const auto res = solo.encode(bmp::read(paths[k]), shapes[s], native);
    alone[p] = now_s() - t0;
    rep.checks.record(sha(res.codestream) == want[p],
                      "standalone encode differs from oracle");
  }
  rep.layers["jp2k.encode.wall_s"] = oracle_s;
  rep.layers["jp2k.decode.wall_s"] = decode_s;

  double total_bytes = 0, lossy_psnr = 0, lossy_jobs = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    total_bytes += bytes[pair_of(i)];
    if (shapes[shape_of(i)].wavelet != jp2k::WaveletKind::kReversible53) {
      lossy_psnr += psnr[pair_of(i)];
      lossy_jobs += 1;
    }
  }
  rep.raw.num("bpp", total_bytes * 8.0 / static_cast<double>(kJobs * kW * kH));
  rep.raw.num("psnr_db", lossy_psnr / lossy_jobs);
  rep.raw.num("mpix_per_op", static_cast<double>(kJobs * kW * kH) / 1e6);

  // One batch: read the inputs, build the service, submit, run.
  auto batch = [&](backend::BackendKind kind, SpanLog* log, int parent,
                   int op) {
    std::vector<std::shared_ptr<const Image>> imgs;
    for (const auto& path : paths) {
      Scoped s(log, "image.read", parent, op);
      imgs.push_back(std::make_shared<const Image>(bmp::read(path)));
    }
    std::unique_ptr<service::EncodeService> svc;
    {
      Scoped s(log, "service.construct", parent, op);
      svc = std::make_unique<service::EncodeService>(sopt);
    }
    {
      Scoped s(log, "service.submit", parent, op);
      for (std::size_t i = 0; i < kJobs; ++i) {
        service::EncodeJob job;
        job.image = imgs[image_of(i)];
        job.params = shapes[shape_of(i)];
        job.pipeline.backend = kind;
        job.name = shape_names[shape_of(i)] + std::to_string(i);
        job.arrival_seconds = arr[i];
        svc->submit(std::move(job));
      }
    }
    Scoped s(log, "service.run", parent, op);
    return svc->run();
  };
  auto check = [&](const service::ServiceResult& res, const char* what) {
    for (std::size_t i = 0; i < kJobs; ++i) {
      const bool ok = i < res.jobs.size() &&
                      sha(res.jobs[i].pipeline.codestream) == want[pair_of(i)];
      rep.checks.record(ok, std::string(what) + " job " + std::to_string(i) +
                                " differs from its standalone encode");
    }
  };

  std::vector<double> setup;
  for (int r = 0; r < 3; ++r) {  // A set-up is a whole batch here.
    const double t0 = now_s();
    const auto res = batch(backend::BackendKind::kNative, nullptr, -1, 0);
    setup.push_back(now_s() - t0);
    check(res, "setup");
  }
  rep.raw.list("setup_s", setup);

  std::vector<double> job_walls, contention, sims, p99s;
  service::ServiceResult last;
  const Timed timed = measure(
      a.seconds,
      [&] {
        const auto res = batch(backend::BackendKind::kNative, nullptr, -1, 0);
        check(res, "native");
        for (std::size_t i = 0; i < res.jobs.size(); ++i) {
          job_walls.push_back(res.jobs[i].pipeline.wall_seconds);
          contention.push_back(res.jobs[i].pipeline.wall_seconds /
                               alone[pair_of(i)]);
        }
      },
      [&] {
        last = batch(backend::BackendKind::kCellModel, nullptr, -1, 0);
        check(last, "cell-model");
        sims.push_back(last.makespan_seconds);
        p99s.push_back(last.summary.p99_latency);
      });
  put_timed(rep, timed);
  rep.raw.list("service_job_wall_s", job_walls);
  rep.raw.list("service_contention", contention);
  rep.raw.list("sim_s", sims);
  rep.raw.list("sim_p99_s", p99s);
  std::vector<const cellenc::PipelineResult*> runs;
  for (const auto& j : last.jobs) runs.push_back(&j.pipeline);
  for (const auto& [k, v] : sim_figures(runs)) rep.layers[k] = v;
  rep.layers["service.pool_occupancy"] = last.summary.pool_occupancy;
  rep.layers["service.steals"] = static_cast<double>(last.summary.steals);
  rep.layers["service.p50_latency"] = last.summary.p50_latency;

  if (!a.trace) return;
  // Traced pass: one batch through the service (root span "op"), then one
  // standalone encode of each shape, on the image of its first job, through
  // the stage entry points on a lease-width machine (root span "standalone", same op
  // id), so the cellenc layers show on this workload too.
  const auto& bk = backend::get(backend::BackendKind::kNative);
  cellenc::CellEncoder tenc(lease);
  TracedCounts counts, sum;
  for (int op = 0; op < kTracedOps; ++op) {
    {
      Scoped root(&rep.spans, "op", -1, op);
      check(batch(backend::BackendKind::kNative, &rep.spans, root.id(), op),
            "traced");
    }
    Scoped root(&rep.spans, "standalone", -1, op);
    sum = {};
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const bool tiled = shapes[s].tiles_x * shapes[s].tiles_y > 1;
      const std::string& path = paths[image_of(s)];  // As job s.
      const auto cs =
          tiled ? traced_tiled(tenc.machine(), path, shapes[s], &rep.spans,
                               root.id(), op)
                : traced_encode(tenc.machine(), path, shapes[s], bk,
                                &rep.spans, root.id(), op, counts);
      rep.checks.record(sha(cs) == want[pair_of(s)],
                        "traced standalone encode differs from oracle");
      if (!tiled) {
        sum.dma_commands += counts.dma_commands;
        sum.t1_symbols += counts.t1_symbols;
        sum.t1_blocks += counts.t1_blocks;
        sum.copy_sim_s += counts.copy_sim_s;
      }
    }
  }
  rep.layers["cell.copy.dma_commands"] = static_cast<double>(sum.dma_commands);
  rep.layers["cell.copy.sim_s"] = sum.copy_sim_s;
  rep.layers["cellenc.t1.symbols"] = sum.t1_symbols;
  rep.layers["cellenc.t1.blocks"] = sum.t1_blocks;
  rep.raw.list("dispatch_s", dispatch_probe(lease, 30));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    Report rep;
    if (a.workload == "lossless_ht") {
      jp2k::CodingParams p;
      p.block_coder = jp2k::BlockCoder::kHt;
      run_encode(a, p, rep);
    } else if (a.workload == "lossy_ebcot") {
      jp2k::CodingParams p;
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      p.rate = 0.25;
      p.layers = 2;
      run_encode(a, p, rep);
    } else if (a.workload == "service_mix") {
      run_service(a, rep);
    } else {
      throw Error("unknown workload " + a.workload);
    }
    if (a.trace && !a.trace_out.empty()) {
      rep.spans.write_chrome_json(a.trace_out);
    }
    rep.raw.str("workload", a.workload);
    rep.raw.str("image_seed", std::to_string(a.seed));
    rep.raw.str("arrival_seed", std::to_string(a.arrival_seed()));
    rep.raw.str("native_isa", backend::native_isa());
    rep.raw.str("compiler", PB_COMPILER);
    rep.raw.str("build_type", PB_BUILD_TYPE);
    rep.raw.str("build_flags", PB_BUILD_FLAGS);
    rep.raw.num("attempted", static_cast<double>(rep.checks.attempted));
    rep.raw.num("failed", static_cast<double>(rep.checks.failed));
    std::string notes;
    for (const auto& n : rep.checks.notes) notes += n + "; ";
    rep.raw.str("failure_notes", notes);
    rep.raw.map("layers", rep.layers);
    rep.raw.num("peak_rss_mb", peak_rss_mb());
    std::printf("PERFBENCH_RAW %s\n", rep.raw.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
