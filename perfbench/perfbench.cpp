// Repository benchmark program (see perfbench/README.md for the metric table).
//
// Builds a 4-device CompStor cluster with bench::DeviceStack and drives one
// workload through the public client API (client::Cluster::RunAll) from at
// most four client threads:
//
//   insitu-scan      grep -c and a gawk word count over a text corpus spread
//                    across the devices, every device's minions in flight at
//                    once (read path: fs stream, FTL read, ECC decode, flash).
//   insitu-compress  gzip then gunzip of every corpus file (codecs plus the
//                    write path: fs journal, FTL programs and GC, ECC encode).
//   kv-zipf          closed-loop YCSB-style point gets, updates and short
//                    scans with zipfian(0.99) keys, one op per RunAll call,
//                    over a store larger than each shard's kv block cache.
//
// Every input is generated here from --seed; the devices only ever see the
// generated files and records. Every output is checked against a reference
// computed here, and a failed check counts as a failed op.
//
// Two clocks are reported: wall (host time, what an emulator speed-up moves)
// and model (virtual device time and energy, what the paper's figures use).
//
// With --trace the run instead reports the per-layer split. The benchmark
// records spans around its own calls into each layer's public entry point
// and walks down a ladder on the same op stream:
//
//   Cluster::RunAll -> CompStorHandle::RunMinion -> TaskRuntime::SpawnSync
//     -> app / kv::KvStore -> fs::Filesystem -> ftl::Ftl
//     -> ecc::PageCodec -> util::Crc32c
//
// A layer's self time is the median over ops of its step's time minus the
// step below, paired op by op. The raw FTL, ECC and CRC steps cannot share
// the agent's device (its filesystem owns every page), so they run on a bare
// twin device built from the same seed.
//
// The last stdout line is "RESULT <json>"; perfbench/run.py turns it into
// the benchmark's result line.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/deflate.hpp"
#include "apps/registry.hpp"
#include "ecc/page_codec.hpp"
#include "harness.hpp"
#include "kv/kv_store.hpp"
#include "proto/entities.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "workload/textgen.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace compstor;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDevices = 4;
constexpr std::size_t kClients = 4;  // one client thread per device
constexpr std::uint32_t kTenant = 11;
constexpr std::size_t kPage = 4096;
constexpr int kSetups = 3;  // set-ups per timed run; setup_s is their median

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload sizes. Fixed per workload; only --seed changes the content.

// insitu-scan: 4 devices x 12 files x 640 KiB ~= 30 MiB of text.
constexpr std::uint32_t kScanFilesPerDevice = 12;
constexpr std::size_t kScanFileBytes = 640 * 1024;
// insitu-compress: 4 devices x 8 files x 96 KiB = 3 MiB per gzip+gunzip pass.
constexpr std::uint32_t kZipFilesPerDevice = 8;
constexpr std::size_t kZipFileBytes = 96 * 1024;
// kv-zipf: 3200 records of ~1 KiB, ~0.8 MiB per shard (cache: 512 KiB).
constexpr std::uint64_t kKvRecords = 3200;
constexpr std::size_t kKvPayloadBytes = 1000;
constexpr int kKvGetPct = 90;     // point gets
constexpr int kKvUpdatePct = 5;   // overwrite of an existing key
constexpr std::uint32_t kKvScanLimit = 16;  // rest: short ordered scans
constexpr std::size_t kKvLoadBatch = 64;    // puts per load command per shard
constexpr double kKvWindowS = 0.5;          // wall-throughput window
constexpr std::size_t kKvLadderOps = 1500;  // traced run: ops replayed per step
// Traced run: FTL pages read back from NAND (twice the 2048-page write cache).
constexpr std::uint64_t kFtlReadPages = 4096;

// ---------------------------------------------------------------------------
// Exact statistics over raw samples.

/// Nearest-rank quantile of the raw samples (no bucketing).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median of the raw samples with its distribution-free 95% confidence
/// interval: the order statistics n/2 -+ 0.98 sqrt(n).
struct MedianCi {
  double median = 0, lo = 0, hi = 0;
};
MedianCi MedianWithCi(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double half = 0.98 * std::sqrt(n);
  const auto at = [&](double rank) {
    return v[static_cast<std::size_t>(std::clamp(rank, 0.0, n - 1))];
  };
  return {Median(v), at(std::floor(n / 2 - half)), at(std::ceil(n / 2 + half))};
}

/// Element-wise a - b of two per-op series.
std::vector<double> Minus(std::vector<double> a, const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: recorded only by the benchmark's own code, kept in memory, written
// when the run ends.

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  double start_us;
  double end_us;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Records a finished span; returns its id (0 when dropped for capacity).
  std::uint64_t Add(const char* name, std::uint64_t parent, std::uint64_t op,
                    Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return 0;
    }
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({name, id, parent, op, Micros(start), Micros(end)});
    return id;
  }
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"op\":%" PRIu64 ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, s.id, s.parent, s.op, s.start_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  const Clock::time_point epoch_ = Clock::now();
  const std::size_t capacity_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// The cluster under test.

struct Rig {
  std::vector<std::unique_ptr<bench::DeviceStack>> devs;
  client::Cluster cluster;
};

std::unique_ptr<Rig> MakeRig(std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  for (std::size_t d = 0; d < kDevices; ++d) {
    auto dev = bench::DeviceStack::Make(seed * 131 + d + 1);
    if (!dev) return nullptr;
    rig->cluster.AddDevice(dev->handle.get());
    rig->devs.push_back(std::move(dev));
  }
  return rig;
}

proto::Command AppCommand(const std::string& app, const std::string& path) {
  if (app == "gunzip-gz") return bench::MakeAppCommand("gunzip", path + ".gz");
  return bench::MakeAppCommand(app, path);
}

/// Model-clock accounting of one measured interval on the whole cluster.
struct ModelWindow {
  double makespan_s = 0;
  double joules = 0;
  double busy_s = 0;      // compute-charged core seconds, all devices
  double capacity_s = 0;  // cores x makespan, all devices
};

void ResetModel(Rig& rig) {
  for (auto& d : rig.devs) d->ResetMeters();
}

/// Cluster makespan (slowest device's core clock) and energy: task-attributed
/// active joules, every device's idle power over the makespan, and storage
/// (flash + controller + link) joules.
ModelWindow ReadModel(Rig& rig, double active_j) {
  ModelWindow w;
  for (auto& d : rig.devs) w.makespan_s = std::max(w.makespan_s, d->agent->cores().Makespan());
  for (auto& d : rig.devs) {
    w.busy_s += d->agent->cores().TotalBusySeconds();
    w.capacity_s += d->agent->cores().core_count() * w.makespan_s;
  }
  double storage_j = 0;
  for (auto& d : rig.devs) storage_j += bench::StorageJoules(*d->ssd);
  w.joules = active_j +
             isps::IspsCpuProfile().package_idle_watts * w.makespan_s *
                 static_cast<double>(kDevices) +
             storage_j;
  return w;
}

// ---------------------------------------------------------------------------
// Registry deltas: only the named per-layer counters, summed over devices.

const std::vector<std::string>& KeptCounters() {
  static const std::vector<std::string> kNames = {
      "nvme.vendor_commands", "nvme.io_commands",    "nvme.internal_commands",
      "isps.minions_handled", "journal.commits",     "journal.cksum_checks",
      "kv.cache_hits",        "kv.cache_misses",     "kv.flushes",
      "kv.compactions",       "ftl.host_page_reads", "ftl.host_page_writes",
      "ftl.flash_reads",      "ftl.flash_programs",  "ftl.gc.runs",
      "ftl.gc.relocations",   "ftl.ecc_corrected_words", "ftl.cache.read_hits",
      "ftl.cache.write_hits", "trace.dropped_spans",
  };
  return kNames;
}
const std::vector<std::string>& KeptHistograms() {
  static const std::vector<std::string> kNames = {"nvme.cmd_us", "flash.read_us",
                                                  "flash.program_us"};
  return kNames;
}

/// Sums "dev<i>.<name>" over devices for the kept names; histograms become
/// "<name>.count" and "<name>.sum".
std::map<std::string, double> KeptStats(client::Cluster& cluster) {
  std::map<std::string, double> out;
  for (const auto& n : KeptCounters()) out[n] = 0;
  for (const auto& n : KeptHistograms()) out[n + ".count"] = out[n + ".sum"] = 0;
  out["flash.busiest_die_s"] = 0;
  for (const telemetry::MetricValue& m : cluster.CollectStats()) {
    if (m.name.rfind("dev", 0) != 0) continue;
    const std::size_t dot = m.name.find('.');
    if (dot == std::string::npos) continue;
    const std::string name = m.name.substr(dot + 1);
    if (m.kind == telemetry::MetricKind::kHistogram) {
      if (std::find(KeptHistograms().begin(), KeptHistograms().end(), name) !=
          KeptHistograms().end()) {
        out[name + ".count"] += static_cast<double>(m.count);
        out[name + ".sum"] += m.sum;
      }
    } else if (name == "flash.busiest_die_s") {
      out[name] = std::max(out[name], m.value);
    } else if (out.count(name) != 0) {
      out[name] += m.value;
    }
  }
  return out;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& before,
                                    const std::map<std::string, double>& after) {
  std::map<std::string, double> d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = k == "flash.busiest_die_s" ? v : v - (it != before.end() ? it->second : 0);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Result assembly.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  // wall | model | count
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // first few failed checks

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& clock) {
    metrics.push_back({name, value, unit, clock});
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// insitu corpus: generated text plus the reference answers for its checks.

struct ScanFile {
  std::string path;
  std::string text;
  std::uint64_t grep_count = 0;  // lines containing "the"
  std::uint64_t words = 0;       // whitespace-separated fields
};

/// Reference answers for `grep -c the` and `{ words += NF }`.
void CountReference(ScanFile& f) {
  std::size_t pos = 0;
  const std::string& t = f.text;
  while (pos < t.size()) {
    std::size_t end = t.find('\n', pos);
    if (end == std::string::npos) end = t.size();
    const std::string_view line(t.data() + pos, end - pos);
    if (line.find("the") != std::string_view::npos) ++f.grep_count;
    bool in_word = false;
    for (char c : line) {
      const bool space = c == ' ' || c == '\t';
      if (!space && !in_word) ++f.words;
      in_word = !space;
    }
    pos = end + 1;
  }
}

std::vector<std::vector<ScanFile>> MakeCorpus(std::uint64_t seed, std::uint32_t files,
                                              std::size_t bytes) {
  std::vector<std::vector<ScanFile>> corpus(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (std::uint32_t i = 0; i < files; ++i) {
      ScanFile f;
      char name[48];
      std::snprintf(name, sizeof(name), "/book_%zu_%03u.txt", d, i);
      f.path = name;
      workload::TextGenOptions o;
      o.seed = seed * 1000003 + d * 1000 + i;
      o.approx_bytes = bytes;
      o.title = "Book " + std::to_string(d) + "-" + std::to_string(i);
      f.text = workload::GenerateBookText(o);
      CountReference(f);
      corpus[d].push_back(std::move(f));
    }
  }
  return corpus;
}

bool StageCorpus(Rig& rig, const std::vector<std::vector<ScanFile>>& corpus) {
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (const ScanFile& f : corpus[d]) {
      if (!rig.devs[d]->handle->UploadFile(f.path, f.text).ok()) return false;
    }
  }
  return true;
}

std::uint64_t ParseCount(const std::string& out, bool* ok) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(out.c_str(), &end, 10);
  *ok = end != out.c_str();
  return v;
}

/// Checks one finished insitu minion against the reference.
bool CheckInsitu(const std::string& app, const ScanFile& f, const proto::Minion& m,
                 std::string* why) {
  const proto::Response& r = m.response;
  if (!r.ok() || r.exit_code != 0) {
    *why = app + " " + f.path + ": status " + r.status_message + " exit " +
           std::to_string(r.exit_code) + " " + r.stderr_data;
    return false;
  }
  if (app == "grep" || app == "gawk") {
    bool ok = false;
    const std::uint64_t got = ParseCount(r.stdout_data, &ok);
    const std::uint64_t want = app == "grep" ? f.grep_count : f.words;
    if (!ok || got != want) {
      *why = app + " " + f.path + ": got '" + r.stdout_data + "' want " + std::to_string(want);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// KV values embed key, version and a checksum of the payload.

std::string KvKey(std::uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08" PRIu64, i);
  return buf;
}

std::size_t KvShard(std::uint64_t i) {
  return static_cast<std::size_t>((i * 0x9E3779B97F4A7C15ull) >> 32) % kDevices;
}

std::string KvValue(std::uint64_t seed, std::uint64_t key, std::uint64_t version) {
  util::Xoshiro256 rng(seed * 0x2545F4914F6CDD1Dull + key * 1000003 + version);
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string payload(kKvPayloadBytes, ' ');
  for (char& c : payload) c = kAlpha[rng.Below(36)];
  char head[64];
  std::snprintf(head, sizeof(head), "%s|%" PRIu64 "|%08x|", KvKey(key).c_str(), version,
                util::Crc32c(payload.data(), payload.size()));
  return head + payload;
}

/// A value is valid for `key` when it names the key, its checksum matches and
/// its version is one the benchmark has issued for that key.
bool KvValid(const std::string& key, const std::string& value, std::uint64_t max_version) {
  const std::size_t a = value.find('|');
  if (a == std::string::npos || value.compare(0, a, key) != 0) return false;
  const std::size_t b = value.find('|', a + 1);
  if (b == std::string::npos || b + 10 > value.size() || value[b + 9] != '|') return false;
  const std::uint64_t version = std::strtoull(value.c_str() + a + 1, nullptr, 10);
  const std::uint32_t crc =
      static_cast<std::uint32_t>(std::strtoul(value.substr(b + 1, 8).c_str(), nullptr, 16));
  const std::string_view payload(value.data() + b + 10, value.size() - b - 10);
  return version <= max_version &&
         util::Crc32c(payload.data(), payload.size()) == crc;
}

proto::Command KvCommand(kv::Request req) {
  proto::Command cmd;
  cmd.type = proto::CommandType::kExecutable;
  cmd.executable = "kv";
  cmd.kv_request = std::move(req);
  return cmd;
}

struct KvState {
  std::uint64_t seed = 0;
  std::vector<std::vector<std::uint64_t>> shard_keys;  // ascending key indices per shard
  std::vector<std::atomic<std::uint64_t>> version;     // highest issued per key
  explicit KvState(std::uint64_t records) : version(records) {}
};

bool LoadKv(Rig& rig, KvState& st) {
  std::vector<kv::Request> pending(kDevices);
  auto flush = [&]() {
    std::vector<client::Cluster::WorkItem> work;
    for (std::size_t d = 0; d < kDevices; ++d) {
      if (pending[d].empty()) continue;
      work.push_back({d, KvCommand(std::move(pending[d]))});
      pending[d] = {};
    }
    if (work.empty()) return true;
    auto r = rig.cluster.RunAll(work, qos::TenantContext{kTenant});
    if (!r.ok()) return false;
    for (const proto::Minion& m : *r) {
      if (!m.response.ok()) return false;
      for (const kv::OpResult& o : m.response.kv.results) {
        if (!o.ok()) return false;
      }
    }
    return true;
  };
  for (std::uint64_t i = 0; i < st.version.size(); ++i) {
    kv::Op op;
    op.type = kv::OpType::kPut;
    op.key = KvKey(i);
    op.value = KvValue(st.seed, i, 0);
    const std::size_t d = KvShard(i);
    pending[d].ops.push_back(std::move(op));
    if (pending[d].ops.size() >= kKvLoadBatch && !flush()) return false;
  }
  if (!flush()) return false;
  // Persist every shard so the measured phase starts from sorted runs and an
  // empty memtable, the same state on every run.
  for (std::size_t d = 0; d < kDevices; ++d) {
    proto::Command cmd;
    cmd.type = proto::CommandType::kExecutable;
    cmd.executable = "kv";
    cmd.args = {"flush"};
    auto r = rig.cluster.RunAll({{d, cmd}}, qos::TenantContext{kTenant});
    if (!r.ok() || !(*r)[0].response.ok()) return false;
  }
  return true;
}

struct KvOp {
  kv::OpType type = kv::OpType::kGet;
  std::uint64_t key = 0;
  std::uint64_t version = 0;  // kPut
};

class KvOpGen {
 public:
  KvOpGen(std::uint64_t seed, std::uint64_t records)
      : records_(records), zipf_(records, 0.99, seed), rng_(seed ^ 0xA5A5A5A5ull) {}
  KvOp Next(KvState& st) {
    KvOp op;
    // Scatter zipf ranks over the key space so hot keys land on every shard.
    op.key = (zipf_.Next() * 0x9E3779B1ull + 7) % records_;
    const int roll = static_cast<int>(rng_.Below(100));
    if (roll < kKvGetPct) {
      op.type = kv::OpType::kGet;
    } else if (roll < kKvGetPct + kKvUpdatePct) {
      op.type = kv::OpType::kPut;
      op.version = st.version[op.key].fetch_add(1) + 1;
    } else {
      op.type = kv::OpType::kScan;
    }
    return op;
  }

 private:
  std::uint64_t records_;
  workload::ZipfDistribution zipf_;
  util::Xoshiro256 rng_;
};

kv::Request KvRequest(const KvState& st, const KvOp& op) {
  kv::Request req;
  kv::Op o;
  o.type = op.type;
  o.key = KvKey(op.key);
  if (op.type == kv::OpType::kPut) o.value = KvValue(st.seed, op.key, op.version);
  if (op.type == kv::OpType::kScan) o.limit = kKvScanLimit;
  req.ops.push_back(std::move(o));
  return req;
}

/// Checks one kv reply; returns the payload bytes it moved (0 on failure).
std::uint64_t CheckKv(const KvState& st, const KvOp& op, const proto::Response& r,
                      std::string* why) {
  if (!r.ok() || r.kv.results.size() != 1 || !r.kv.results[0].ok()) {
    *why = "kv op on " + KvKey(op.key) + ": " + r.status_message;
    return 0;
  }
  const kv::OpResult& res = r.kv.results[0];
  const std::string key = KvKey(op.key);
  switch (op.type) {
    case kv::OpType::kGet:
      if (!res.found || !KvValid(key, res.value, st.version[op.key].load())) {
        *why = "get " + key + ": missing or invalid value";
        return 0;
      }
      return key.size() + res.value.size();
    case kv::OpType::kPut:
      return key.size() + kKvPayloadBytes;
    case kv::OpType::kScan: {
      const auto& keys = st.shard_keys[KvShard(op.key)];
      auto it = std::lower_bound(keys.begin(), keys.end(), op.key);
      std::uint64_t bytes = 0;
      for (const auto& [k, v] : res.rows) {
        if (it == keys.end() || k != KvKey(*it) || !KvValid(k, v, st.version[*it].load())) {
          *why = "scan from " + key + ": row " + k + " out of order or invalid";
          return 0;
        }
        bytes += k.size() + v.size();
        ++it;
      }
      const std::size_t want = std::min<std::size_t>(
          kKvScanLimit, keys.end() - std::lower_bound(keys.begin(), keys.end(), op.key));
      if (res.rows.size() != want) {
        *why = "scan from " + key + ": " + std::to_string(res.rows.size()) + " rows, want " +
               std::to_string(want);
        return 0;
      }
      return bytes;
    }
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// Measured phases.

struct Phase {
  std::uint64_t ops = 0;          // ops completed (checked)
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;        // input / payload bytes of completed ops
  double wall_s = 0;
  std::vector<double> op_us;      // client-observed latency per op
  // Wall throughput per window (insitu: one pass; kv: kKvWindowS), so a
  // short stall on the host moves one window, not the reported median.
  std::vector<double> window_mbps;
  std::vector<double> window_ops;
  std::vector<double> pass_model_mbps;  // insitu: one per pass
  std::vector<double> pass_j_per_gb;    // insitu: one per pass
  double model_makespan_s = 0;
  double model_joules = 0;
  double model_busy_s = 0;
  double model_capacity_s = 0;
  double active_j = 0;
  double model_task_s = 0;  // sum of minion in-device elapsed
  std::uint64_t minions = 0;
  std::uint64_t wire_bytes = 0;  // serialized command + reply bytes
};

struct Ctx {
  Rig* rig = nullptr;
  SpanLog* spans = nullptr;  // non-null: record a span per client call
  bool count_wire = false;   // serialize replies for link.bytes_per_op
  Outcome* out = nullptr;
  std::mutex mu;  // guards out->Fail from client threads
};

void RecordFailure(Ctx& ctx, const std::string& why) {
  std::lock_guard<std::mutex> lock(ctx.mu);
  ctx.out->Fail(why);
}

struct Round {
  std::string app;       // grep | gawk | gzip | gunzip-gz
  bool input_is_gz = false;
};

/// One insitu pass: for every round, each client thread sends its device's
/// files as one RunAll, so every minion of a round is in flight at once.
/// A client's op is its share of the pass: the latency sample is the sum of
/// its RunAll latencies over the rounds (one gzip and one gunzip query in
/// insitu-compress), so samples do not split into one mode per round.

void RunInsituPass(Ctx& ctx, const std::vector<std::vector<ScanFile>>& corpus,
                   const std::vector<std::vector<Round>>& rounds,
                   const std::vector<std::uint64_t>& gz_bytes, Phase& ph,
                   std::uint64_t* op_id) {
  Rig& rig = *ctx.rig;
  ResetModel(rig);
  std::uint64_t pass_bytes = 0, pass_ops = 0;
  double active_j = 0;
  std::vector<double> lat(kClients, 0);
  const auto t0 = Clock::now();
  for (const std::vector<Round>& group : rounds) {
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> bytes(kClients, 0), ok(kClients, 0), bad(kClients, 0);
    std::vector<double> energy(kClients, 0), task_s(kClients, 0);
    std::vector<std::uint64_t> wire(kClients, 0);
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::uint64_t first_op = *op_id + c * 1000;
      threads.emplace_back([&, c, first_op] {
        std::vector<client::Cluster::WorkItem> work;
        std::vector<std::pair<const Round*, const ScanFile*>> what;
        for (const Round& r : group) {
          for (const ScanFile& f : corpus[c]) {
            work.push_back({c, AppCommand(r.app, f.path)});
            what.emplace_back(&r, &f);
          }
        }
        const auto s = Clock::now();
        auto res = rig.cluster.RunAll(work, qos::TenantContext{kTenant});
        const auto e = Clock::now();
        if (ctx.spans != nullptr) ctx.spans->Add("Cluster::RunAll", 0, first_op, s, e);
        lat[c] += std::chrono::duration<double, std::micro>(e - s).count();
        if (!res.ok()) {
          bad[c] += work.size();
          RecordFailure(ctx, "RunAll: " + res.status().ToString());
          return;
        }
        for (std::size_t i = 0; i < res->size(); ++i) {
          const proto::Minion& m = (*res)[i];
          const auto [round, file] = what[i];
          std::string why;
          if (!CheckInsitu(round->app, *file, m, &why)) {
            ++bad[c];
            RecordFailure(ctx, why);
            continue;
          }
          ++ok[c];
          const std::size_t fidx = static_cast<std::size_t>(file - corpus[c].data());
          bytes[c] += round->input_is_gz ? gz_bytes[c * corpus[c].size() + fidx]
                                         : file->text.size();
          energy[c] += m.response.energy_joules;
          task_s[c] += m.response.elapsed_s();
          if (ctx.count_wire) wire[c] += proto::Serialize(m).size();
        }
      });
    }
    for (auto& t : threads) t.join();
    *op_id += kClients * 1000;
    for (std::size_t c = 0; c < kClients; ++c) {
      pass_ops += ok[c];
      ph.ops += ok[c];
      ph.failed += bad[c];
      pass_bytes += bytes[c];
      active_j += energy[c];
      ph.model_task_s += task_s[c];
      ph.minions += ok[c];
      ph.wire_bytes += wire[c];
    }
  }
  const double wall = Since(t0);
  ph.op_us.insert(ph.op_us.end(), lat.begin(), lat.end());
  const ModelWindow mw = ReadModel(rig, active_j);
  ph.wall_s += wall;
  ph.bytes += pass_bytes;
  ph.active_j += active_j;
  ph.model_makespan_s += mw.makespan_s;
  ph.model_joules += mw.joules;
  ph.model_busy_s += mw.busy_s;
  ph.model_capacity_s += mw.capacity_s;
  const double mb = static_cast<double>(pass_bytes) / 1e6;
  ph.window_mbps.push_back(mb / wall);
  ph.window_ops.push_back(static_cast<double>(pass_ops) / wall);
  ph.pass_model_mbps.push_back(mw.makespan_s > 0 ? mb / mw.makespan_s : 0);
  ph.pass_j_per_gb.push_back(pass_bytes ? mw.joules / (mb / 1e3) : 0);
}

/// Closed-loop kv: each client thread sends one op per RunAll and waits.
void RunKvPhase(Ctx& ctx, KvState& st, std::uint64_t seed, double seconds, Phase& ph,
                std::uint64_t* op_id) {
  Rig& rig = *ctx.rig;
  ResetModel(rig);
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::uint64_t> ok(kClients, 0), bad(kClients, 0), bytes(kClients, 0),
      wire(kClients, 0);
  std::vector<double> energy(kClients, 0), task_s(kClients, 0);
  std::vector<std::vector<std::pair<double, std::uint64_t>>> done(kClients);  // (t, bytes)
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      KvOpGen gen(seed * 7919 + c + 1 + *op_id, st.version.size());
      std::uint64_t local = 0;
      while (Clock::now() < deadline) {
        const KvOp op = gen.Next(st);
        const std::uint64_t id = *op_id + c * 10'000'000 + local++;
        const auto s = Clock::now();
        auto res = rig.cluster.RunAll({{KvShard(op.key), KvCommand(KvRequest(st, op))}},
                                      qos::TenantContext{kTenant});
        const auto e = Clock::now();
        if (ctx.spans != nullptr) ctx.spans->Add("Cluster::RunAll", 0, id, s, e);
        std::string why;
        const std::uint64_t b =
            res.ok() ? CheckKv(st, op, (*res)[0].response, &why) : 0;
        if (!res.ok()) why = "RunAll: " + res.status().ToString();
        if (b == 0) {
          ++bad[c];
          RecordFailure(ctx, why);
          continue;
        }
        lat[c].push_back(std::chrono::duration<double, std::micro>(e - s).count());
        done[c].emplace_back(std::chrono::duration<double>(e - t0).count(), b);
        ++ok[c];
        bytes[c] += b;
        energy[c] += (*res)[0].response.energy_joules;
        task_s[c] += (*res)[0].response.elapsed_s();
        if (ctx.count_wire) wire[c] += proto::Serialize((*res)[0]).size();
      }
    });
  }
  for (auto& t : threads) t.join();
  *op_id += kClients * 10'000'000;
  ph.wall_s += Since(t0);
  double active_j = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    ph.op_us.insert(ph.op_us.end(), lat[c].begin(), lat[c].end());
    ph.ops += ok[c];
    ph.failed += bad[c];
    ph.bytes += bytes[c];
    active_j += energy[c];
    ph.model_task_s += task_s[c];
    ph.wire_bytes += wire[c];
    ph.minions += ok[c];
  }
  const std::size_t windows = static_cast<std::size_t>(seconds / kKvWindowS);
  std::vector<double> win_ops(windows, 0), win_bytes(windows, 0);
  for (const auto& per_client : done) {
    for (const auto& [t, b] : per_client) {
      const std::size_t i = static_cast<std::size_t>(t / kKvWindowS);
      if (i >= windows) continue;
      win_ops[i] += 1;
      win_bytes[i] += static_cast<double>(b);
    }
  }
  for (std::size_t i = 0; i < windows; ++i) {
    ph.window_ops.push_back(win_ops[i] / kKvWindowS);
    ph.window_mbps.push_back(win_bytes[i] / 1e6 / kKvWindowS);
  }
  const ModelWindow mw = ReadModel(rig, active_j);
  ph.active_j += active_j;
  ph.model_makespan_s += mw.makespan_s;
  ph.model_joules += mw.joules;
  ph.model_busy_s += mw.busy_s;
  ph.model_capacity_s += mw.capacity_s;
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report_dir;
  std::string describe = "unknown";
};

/// Everything one workload needs; built by Setup, consumed by the phases.
struct World {
  std::unique_ptr<Rig> rig;
  std::vector<std::vector<ScanFile>> corpus;
  std::vector<std::vector<Round>> rounds;
  std::vector<std::uint64_t> gz_bytes;  // insitu-compress: stored .gz size per file
  std::unique_ptr<KvState> kv;
};

bool IsInsitu(const std::string& w) { return w == "insitu-scan" || w == "insitu-compress"; }

/// Builds devices, formats them and stages the corpus or loads the records.
/// Inputs are generated before the clock starts.
bool Setup(const Args& a, World& w, double* seconds) {
  w.rig.reset();
  // Hand the torn-down rig's pages back, so repeated set-ups do not stack up
  // in per-thread malloc arenas and peak_rss_mb stays one rig's footprint.
  malloc_trim(0);
  if (a.workload == "insitu-scan") {
    if (w.corpus.empty()) w.corpus = MakeCorpus(a.seed, kScanFilesPerDevice, kScanFileBytes);
    w.rounds = {{{"grep", false}, {"gawk", false}}};
  } else if (a.workload == "insitu-compress") {
    if (w.corpus.empty()) w.corpus = MakeCorpus(a.seed, kZipFilesPerDevice, kZipFileBytes);
    w.rounds = {{{"gzip", false}}, {{"gunzip-gz", true}}};
  } else if (a.workload == "kv-zipf") {
    w.kv = std::make_unique<KvState>(kKvRecords);
    w.kv->seed = a.seed;
    w.kv->shard_keys.assign(kDevices, {});
    // Keys are zero-padded, so ascending index order is key order.
    for (std::uint64_t i = 0; i < kKvRecords; ++i) w.kv->shard_keys[KvShard(i)].push_back(i);
  } else {
    return false;
  }
  const auto t0 = Clock::now();
  w.rig = MakeRig(a.seed);
  if (!w.rig) return false;
  bool ok = true;
  if (IsInsitu(a.workload)) {
    ok = StageCorpus(*w.rig, w.corpus);
  } else {
    ok = LoadKv(*w.rig, *w.kv);
  }
  *seconds = Since(t0);
  return ok;
}

/// gzip -k output sizes, needed for gunzip's input bytes (measured once on
/// the staged corpus, outside any timed phase).
bool MeasureGzSizes(World& w) {
  w.gz_bytes.clear();
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (const ScanFile& f : w.corpus[d]) {
      proto::Command cmd = bench::MakeAppCommand("gzip", f.path);
      cmd.args = {"-k", f.path};
      auto r = w.rig->cluster.RunAll({{d, cmd}}, qos::TenantContext{kTenant});
      if (!r.ok() || !(*r)[0].response.ok()) return false;
      auto st = w.rig->devs[d]->agent->filesystem().Stat(f.path + ".gz");
      if (!st.ok()) return false;
      w.gz_bytes.push_back(st->size);
      if (!w.rig->devs[d]->agent->filesystem().Unlink(f.path + ".gz").ok()) return false;
    }
  }
  return true;
}

/// Runs the workload's op stream until `seconds` elapse (insitu: whole
/// passes, at least `min_passes`).
void RunPhase(Ctx& ctx, const Args& a, World& w, double seconds, Phase& ph,
              std::uint64_t* op_id, int min_passes = 3) {
  if (IsInsitu(a.workload)) {
    const auto t0 = Clock::now();
    int passes = 0;
    while (passes < min_passes || Since(t0) < seconds) {
      RunInsituPass(ctx, w.corpus, w.rounds, w.gz_bytes, ph, op_id);
      ++passes;
    }
  } else {
    RunKvPhase(ctx, *w.kv, a.seed, seconds, ph, op_id);
  }
}

/// Post-phase checks that need the device state: insitu-compress files must
/// be byte-identical to the originals after every gzip/gunzip round trip.
void FinalChecks(const Args& a, World& w, Outcome& out) {
  if (a.workload != "insitu-compress") return;
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (const ScanFile& f : w.corpus[d]) {
      ++out.attempted;
      auto text = w.rig->devs[d]->handle->DownloadFileText(f.path);
      if (!text.ok() || *text != f.text) out.Fail("gunzip output differs: " + f.path);
    }
  }
}

// ---------------------------------------------------------------------------
// Timed run: every end-to-end metric.

void TimedRun(const Args& a, Outcome& out) {
  World w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    double s = 0;
    if (!Setup(a, w, &s)) {
      out.Fail("setup failed");
      return;
    }
    setup_s.push_back(s);
  }
  if (a.workload == "insitu-compress" && !MeasureGzSizes(w)) {
    out.Fail("gzip size probe failed");
    return;
  }
  Ctx ctx;
  ctx.rig = w.rig.get();
  ctx.out = &out;
  Phase ph;
  std::uint64_t op_id = 1;
  RunPhase(ctx, a, w, a.seconds, ph, &op_id);
  out.attempted += ph.ops + ph.failed;
  FinalChecks(a, w, out);

  const double mb = static_cast<double>(ph.bytes) / 1e6;
  out.Add("setup_s", Median(setup_s), "s", "wall");
  out.Add("wall_mb_per_s", Median(ph.window_mbps), "MB/s", "wall");
  out.Add("wall_ops_per_s", Median(ph.window_ops), "ops/s", "wall");
  if (IsInsitu(a.workload)) {
    out.Add("model_mb_per_s", Median(ph.pass_model_mbps), "MB/s", "model");
    out.Add("model_j_per_gb", Median(ph.pass_j_per_gb), "J/GB", "model");
  } else {
    out.Add("model_mb_per_s", ph.model_makespan_s > 0 ? mb / ph.model_makespan_s : 0,
            "MB/s", "model");
    out.Add("model_j_per_gb", mb > 0 ? ph.model_joules / (mb / 1e3) : 0, "J/GB", "model");
  }
  out.Add("wall_p50_us", Quantile(ph.op_us, 0.50), "us", "wall");
  out.Add("wall_p99_us", Quantile(ph.op_us, 0.99), "us", "wall");
  out.Add("latency_samples", static_cast<double>(ph.op_us.size()), "count", "wall");
  if (!ph.op_us.empty() && std::ceil(0.99 * static_cast<double>(ph.op_us.size())) ==
                               static_cast<double>(ph.op_us.size())) {
    std::printf("wall_p99_us is the largest of %zu latency samples\n", ph.op_us.size());
  }
  out.Add("fail_ratio",
          out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0,
          "1", "-");
  out.Add("peak_rss_mb", PeakRssMb(), "MB", "wall");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer split.

/// The op list the ladder replays: for insitu, one minion per (round app,
/// file) on device 0; for kv, the first ops of a seeded stream on shard 0.
struct LadderOp {
  proto::Command cmd;
  const ScanFile* file = nullptr;
  std::string app;
  std::uint64_t in_bytes = 0;
  std::uint64_t out_bytes = 0;  // bytes the app writes (gzip/gunzip)
  KvOp kv;
};

void TracedRun(const Args& a, Outcome& out) {
  World w;
  double setup = 0;
  if (!Setup(a, w, &setup)) {
    out.Fail("setup failed");
    return;
  }
  if (a.workload == "insitu-compress" && !MeasureGzSizes(w)) {
    out.Fail("gzip size probe failed");
    return;
  }
  const bool insitu = IsInsitu(a.workload);
  SpanLog spans(1 << 20);
  Ctx ctx;
  ctx.rig = w.rig.get();
  ctx.out = &out;
  ctx.count_wire = true;
  std::uint64_t op_id = 1;
  const double phase_s = a.seconds / 3.0;

  // 1. End-to-end phases, untraced and traced (a span around every client
  // call) in alternating halves so drift in device state hits both alike.
  // The registry delta spans all of them.
  const auto stats_before = KeptStats(w.rig->cluster);
  std::uint64_t retries = 0;
  for (auto& d : w.rig->devs) retries -= d->handle->retries();
  Phase plain, traced;
  for (int half = 0; half < 2; ++half) {
    RunPhase(ctx, a, w, phase_s / 2, plain, &op_id, 1);
    ctx.spans = &spans;
    RunPhase(ctx, a, w, phase_s / 2, traced, &op_id, 1);
    ctx.spans = nullptr;
  }
  const auto delta = Delta(stats_before, KeptStats(w.rig->cluster));
  for (auto& d : w.rig->devs) retries += d->handle->retries();
  const auto frontier_after = w.rig->cluster.FrontierStats();
  out.attempted += plain.ops + plain.failed + traced.ops + traced.failed;
  const double phase_minions = static_cast<double>(plain.minions + traced.minions);

  // Host thread-time per op: client threads x wall / ops (closed loop).
  const auto thread_us_per_op = [](const Phase& p) {
    return p.minions ? static_cast<double>(kClients) * p.wall_s * 1e6 /
                           static_cast<double>(p.minions)
                     : 0;
  };
  const double e2e_us = thread_us_per_op(plain);
  const double e2e_traced_us = thread_us_per_op(traced);

  // 3. The ladder. Every op of a fixed list walks down every step in turn,
  // so the steps of one op see the same device state and differences pair
  // up op by op. gzip/gunzip keep their input here (-k), so replaying an op
  // at each step leaves the corpus as it was.
  std::vector<LadderOp> ops;
  Rig& rig = *w.rig;
  auto& dev0 = *rig.devs[0];
  if (insitu) {
    for (const auto& group : w.rounds) {
      for (const Round& r : group) {
        for (std::size_t i = 0; i < w.corpus[0].size(); ++i) {
          const ScanFile& f = w.corpus[0][i];
          LadderOp op;
          op.cmd = AppCommand(r.app, f.path);
          op.file = &f;
          op.app = r.app == "gunzip-gz" ? "gunzip" : r.app;
          op.in_bytes = r.input_is_gz ? w.gz_bytes[i] : f.text.size();
          op.out_bytes = r.app == "gzip"        ? w.gz_bytes[i]
                         : r.app == "gunzip-gz" ? f.text.size()
                                                : 0;
          if (op.out_bytes > 0) op.cmd.args.insert(op.cmd.args.begin(), "-k");
          ops.push_back(std::move(op));
        }
      }
    }
  } else {
    KvOpGen gen(a.seed * 104729 + 3, w.kv->version.size());
    while (ops.size() < kKvLadderOps) {
      const KvOp k = gen.Next(*w.kv);
      if (KvShard(k.key) != 0) continue;  // an unsent version is never read back
      LadderOp op;
      op.kv = k;
      op.cmd = KvCommand(KvRequest(*w.kv, k));
      op.in_bytes = KvKey(k.key).size() + (k.type == kv::OpType::kPut ? kKvPayloadBytes : 0);
      ops.push_back(std::move(op));
    }
  }
  const std::size_t n = ops.size();
  std::uint64_t ladder_bytes = 0;
  for (const LadderOp& op : ops) ladder_bytes += op.in_bytes;

  auto check = [&](const LadderOp& op, const proto::Response& r) {
    ++out.attempted;
    std::string why;
    if (insitu) {
      proto::Minion m;
      m.response = r;
      if (!CheckInsitu(op.app, *op.file, m, &why)) out.Fail(why);
    } else if (CheckKv(*w.kv, op.kv, r, &why) == 0) {
      out.Fail(why);
    }
  };

  // The kv step calls the agent's own store directly (a second KvStore on
  // the same directory would fight it). Its fs replay reads a copy of the
  // store's largest sorted run, which later compactions cannot delete.
  fs::Filesystem& fs_dev = dev0.agent->filesystem();
  kv::KvStore* store = nullptr;
  const std::string kv_sst = "/perfbench_sst";
  std::uint64_t kv_sst_size = 0;
  if (!insitu) {
    store = dev0.agent->runtime().kv_stores().Peek("/kv");
    auto entries = fs_dev.ReadDir("/kv");
    std::string largest;
    for (const fs::DirEntry& e : entries.ok() ? *entries : std::vector<fs::DirEntry>{}) {
      auto st = fs_dev.Stat("/kv/" + e.name);
      if (e.name.rfind("sst-", 0) == 0 && st.ok() && st->size > kv_sst_size) {
        largest = "/kv/" + e.name;
        kv_sst_size = st->size;
      }
    }
    auto bytes = largest.empty() ? Result<std::vector<std::uint8_t>>(NotFound("no sstable"))
                                 : fs_dev.ReadFileAll(largest);
    if (store == nullptr || !bytes.ok() || !fs_dev.WriteFile(kv_sst, *bytes).ok()) {
      out.Fail("device kv store not found");
      return;
    }
  }
  const std::string scratch = "/perfbench_scratch";
  auto scratch_ino = fs_dev.Create(scratch);
  auto sst_ino = insitu ? Result<std::uint32_t>(0u) : fs_dev.Lookup(kv_sst);
  if (!scratch_ino.ok() || !sst_ino.ok()) {
    out.Fail("fs scratch setup failed");
    return;
  }

  ssd::Ssd bare(ssd::CompStorProfile(0.0015), a.seed * 131 + 2);
  ftl::Ftl& ftl = bare.ftl();
  // Page images from the workload's own bytes. Reads come from a region
  // written past the FTL write cache and flushed, so they reach NAND.
  std::string sample = insitu ? w.corpus[0][0].text : KvValue(a.seed, 0, 0);
  while (sample.size() < kPage) sample += sample;
  std::vector<std::uint8_t> page(kPage);
  std::memcpy(page.data(), sample.data(), kPage);
  const std::vector<std::uint8_t> clean_page = page;
  for (std::uint64_t l = 0; l < 2 * kFtlReadPages; ++l) {
    if (!ftl.WritePage(l, page).ok()) out.Fail("ftl prefill");
  }
  if (!ftl.Flush().ok()) out.Fail("ftl flush");
  const ecc::PageCodec codec(kPage, bare.profile().geometry.page_spare_bytes);
  std::vector<std::uint8_t> spare(bare.profile().geometry.page_spare_bytes);
  if (!codec.Encode(page, spare).ok()) out.Fail("ecc encode");
  const std::vector<std::uint8_t> clean_spare = spare;

  // Per-op state handed down the steps.
  proto::Minion reply;
  std::vector<std::uint8_t> cmd_frame, reply_frame;
  kv::IoStats kv_io;
  std::uint64_t rd_pages = 0, wr_pages = 0;
  std::vector<std::uint8_t> buf(1 << 20);
  std::uint64_t scratch_off = 0, ftl_read_cursor = 0, ftl_write_cursor = 0;

  // Inner accounting for the per-layer unit costs.
  std::uint64_t proto_bytes = 0, fs_read_bytes = 0, fs_write_bytes = 0;
  std::uint64_t ftl_rd = 0, ftl_wr = 0, crc_bytes = 0;
  double fs_read_us = 0, fs_write_us = 0, ftl_rd_us = 0, ftl_wr_us = 0;
  double ecc_dec_us = 0, ecc_enc_us = 0;
  std::uint32_t crc_sink = 0;
  std::map<std::string, std::vector<double>> kv_us;  // per op type
  auto us_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
  };
  auto pages_of = [](std::uint64_t bytes) { return (bytes + kPage - 1) / kPage; };
  auto registry = apps::Registry::WithBuiltins();
  auto make_ctx = [&](fs::Filesystem* fs) {
    apps::AppContext c;
    c.fs = fs;
    c.platform.prefetch = true;
    c.platform.chunk_bytes = dev0.agent->runtime().chunk_bytes();
    c.budget = dev0.agent->runtime().budget();
    return c;
  };

  struct Step {
    const char* name;
    std::function<void(const LadderOp&)> run;
  };
  const std::vector<Step> steps = {
      {"Cluster::RunAll",
       [&](const LadderOp& op) {
         auto r = rig.cluster.RunAll({{0, op.cmd}}, qos::TenantContext{kTenant});
         if (r.ok()) check(op, (*r)[0].response); else out.Fail("RunAll failed");
       }},
      {"CompStorHandle::RunMinion",
       [&](const LadderOp& op) {
         auto r = dev0.handle->RunMinion(op.cmd);
         if (r.ok()) {
           check(op, r->response);
           reply = *r;
         } else {
           out.Fail("RunMinion failed");
         }
       }},
      {"proto::Serialize",
       [&](const LadderOp& op) {
         proto::Minion cmd_only;
         cmd_only.command = op.cmd;
         cmd_frame = proto::Serialize(cmd_only);
         reply_frame = proto::Serialize(reply);
         proto_bytes += cmd_frame.size() + reply_frame.size();
       }},
      {"proto::DeserializeMinion",
       [&](const LadderOp&) {
         if (!proto::DeserializeMinion(cmd_frame).ok() ||
             !proto::DeserializeMinion(reply_frame).ok()) {
           out.Fail("proto decode failed");
         }
       }},
      {"TaskRuntime::SpawnSync",
       [&](const LadderOp& op) { check(op, dev0.agent->runtime().SpawnSync(op.cmd)); }},
      {insitu ? "apps::Application::Run" : "kv::KvStore",
       [&](const LadderOp& op) {
         if (insitu) {
           auto app = registry->Create(op.cmd.executable);
           if (!app.ok()) {
             out.Fail("no app " + op.cmd.executable);
             return;
           }
           apps::AppContext c = make_ctx(&dev0.agent->filesystem());
           auto rc = (*app)->Run(c, op.cmd.args);
           proto::Response r;
           r.exit_code = rc.ok() ? *rc : -1;
           r.stdout_data = c.stdout_data;
           check(op, r);
           rd_pages = pages_of(op.in_bytes);
           wr_pages = pages_of(op.out_bytes);
           return;
         }
         const std::string key = KvKey(op.kv.key);
         kv_io = {};
         const auto s = Clock::now();
         if (op.kv.type == kv::OpType::kGet) {
           std::string v;
           bool found = false;
           if (!store->Get(key, &v, &found, &kv_io).ok() || !found) out.Fail("kv get");
           kv_us["get"].push_back(us_since(s));
         } else if (op.kv.type == kv::OpType::kPut) {
           if (!store->Put(key, KvValue(a.seed, op.kv.key, op.kv.version), &kv_io).ok()) {
             out.Fail("kv put");
           }
           kv_us["put"].push_back(us_since(s));
         } else {
           kv::ScanOptions so;
           so.start = key;
           so.limit = kKvScanLimit;
           if (!store->Scan(so, &kv_io).ok()) out.Fail("kv scan");
           kv_us["scan"].push_back(us_since(s));
         }
         rd_pages = kv_io.blocks_read;
         wr_pages = pages_of(kv_io.bytes_written);
       }},
      // The file-system calls the op makes: the app's input stream and output
      // file, or the store's block reads and log appends.
      {"fs::Filesystem",
       [&](const LadderOp& op) {
         if (rd_pages > 0) {
           const auto s = Clock::now();
           if (insitu) {
             const std::string path = op.app == "gunzip" ? op.file->path + ".gz" : op.file->path;
             fs::StreamOptions so;
             so.chunk_bytes = dev0.agent->runtime().chunk_bytes();
             so.prefetch = true;
             auto src = fs_dev.OpenRead(path, so);
             for (bool more = src.ok(); more;) {
               auto got = (*src)->Read(buf);
               more = got.ok() && *got > 0;
             }
             if (!src.ok()) out.Fail("fs open " + path);
             fs_read_bytes += op.in_bytes;
           } else {
             for (std::uint64_t b = 0; b < rd_pages; ++b) {
               const std::uint64_t blocks = std::max<std::uint64_t>(kv_sst_size / kPage, 1);
               const std::uint64_t off = (op.kv.key * 2654435761u + b) % blocks * kPage;
               if (!fs_dev.Read(*sst_ino, off, std::span(buf).first(kPage)).ok()) {
                 out.Fail("fs read");
               }
             }
             fs_read_bytes += rd_pages * kPage;
           }
           fs_read_us += us_since(s);
         }
         if (wr_pages > 0) {
           const std::uint64_t bytes =
               std::min<std::uint64_t>(insitu ? op.out_bytes : kv_io.bytes_written, buf.size());
           const auto s = Clock::now();
           if (insitu) {
             auto sink = fs_dev.OpenWrite(scratch);
             if (!sink.ok() || !(*sink)->Write(std::span(buf).first(bytes)).ok() ||
                 !(*sink)->Close().ok()) {
               out.Fail("fs write");
             }
           } else {
             if (!fs_dev.Write(*scratch_ino, scratch_off, std::span(buf).first(bytes)).ok()) {
               out.Fail("fs append");
             }
             scratch_off += bytes;
           }
           fs_write_us += us_since(s);
           fs_write_bytes += bytes;
         }
       }},
      {"ftl::Ftl",
       [&](const LadderOp&) {
         auto s = Clock::now();
         for (std::uint64_t p = 0; p < rd_pages; ++p) {
           if (!ftl.ReadPage(ftl_read_cursor++ % kFtlReadPages, page).ok()) out.Fail("ftl read");
         }
         ftl_rd_us += us_since(s);
         s = Clock::now();
         for (std::uint64_t p = 0; p < wr_pages; ++p) {
           const std::uint64_t lpn = 2 * kFtlReadPages + ftl_write_cursor++ % kFtlReadPages;
           if (!ftl.WritePage(lpn, clean_page).ok()) out.Fail("ftl write");
         }
         if (wr_pages > 0 && !ftl.Flush().ok()) out.Fail("ftl flush");
         ftl_wr_us += us_since(s);
         ftl_rd += rd_pages;
         ftl_wr += wr_pages;
       }},
      {"ecc::PageCodec",
       [&](const LadderOp&) {
         auto s = Clock::now();
         for (std::uint64_t p = 0; p < rd_pages; ++p) {
           page = clean_page;
           spare = clean_spare;
           if (!codec.Decode(page, spare).ok()) out.Fail("ecc decode");
         }
         ecc_dec_us += us_since(s);
         s = Clock::now();
         for (std::uint64_t p = 0; p < wr_pages; ++p) {
           if (!codec.Encode(clean_page, spare).ok()) out.Fail("ecc encode");
         }
         ecc_enc_us += us_since(s);
       }},
      {"util::Crc32c",
       [&](const LadderOp&) {
         for (std::uint64_t p = 0; p < rd_pages + wr_pages; ++p) {
           crc_sink ^= util::Crc32c(clean_page.data(), kPage);
         }
         crc_bytes += (rd_pages + wr_pages) * kPage;
       }},
  };

  // The kv block cache would let the first step absorb every miss and hand
  // later steps the warm blocks. One untimed pass of the op list through the
  // top step first gives every step the same warm cache; misses still show in
  // the end-to-end phases and in kv.cache_misses.
  if (!insitu) {
    for (const LadderOp& op : ops) steps[0].run(op);
  }
  std::map<std::string, std::vector<double>> T;  // step -> time of each op
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t parent = 0;
    rd_pages = wr_pages = 0;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const auto t0 = Clock::now();
      steps[s].run(ops[i]);
      const auto t1 = Clock::now();
      T[steps[s].name].push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      parent = spans.Add(steps[s].name, parent, op_id + i, t0, t1);
    }
  }
  // Coverage is measured against the same op list sent through RunAll alone:
  // untraced, one op in flight as in the ladder, and no other step between.
  std::vector<double> serial_us;
  for (const LadderOp& op : ops) {
    const auto t0 = Clock::now();
    steps[0].run(op);
    serial_us.push_back(Since(t0) * 1e6);
  }
  const double e2e_serial_us = Median(serial_us);
  (void)fs_dev.Unlink(scratch);
  if (!insitu) (void)fs_dev.Unlink(kv_sst);
  if (crc_sink == 0x5A5A5A5A) std::printf("#\n");  // keeps the CRC loop observable
  std::map<std::string, double> U;
  for (const auto& [name, t] : T) U[name] = Mean(t);
  const double enc_us = U["proto::Serialize"];
  const double dec_us = U["proto::DeserializeMinion"];
  FinalChecks(a, w, out);

  // The same apps over an in-memory copy of the input: pure app compute.
  // grep and gawk read it as stdin; gzip/gunzip call the codec they run.
  std::map<std::string, std::pair<double, double>> app_mem;  // app -> (us, bytes)
  auto time_mem = [&](const std::string& app, std::size_t bytes,
                      const std::function<bool()>& fn) {
    const auto s = Clock::now();
    const bool ok = fn();
    const auto e = Clock::now();
    if (!ok) out.Fail("in-memory " + app);
    spans.Add("apps.in_memory", 0, 0, s, e);
    app_mem[app].first += std::chrono::duration<double, std::micro>(e - s).count();
    app_mem[app].second += static_cast<double>(bytes);
  };
  for (const LadderOp& op : ops) {
    if (!insitu) break;
    const std::string& text = op.file->text;
    if (op.app == "grep" || op.app == "gawk") {
      auto app = registry->Create(op.app);
      if (!app.ok()) continue;
      apps::AppContext c = make_ctx(nullptr);
      c.stdin_data = text;
      const std::vector<std::string> args(op.cmd.args.begin(), op.cmd.args.end() - 1);
      time_mem(op.app, text.size(), [&] {
        const auto rc = (*app)->Run(c, args);
        bool parsed = false;
        const std::uint64_t got = ParseCount(c.stdout_data, &parsed);
        return rc.ok() && parsed &&
               got == (op.app == "grep" ? op.file->grep_count : op.file->words);
      });
    } else if (op.app == "gzip") {
      const auto plain = std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
      Result<std::vector<std::uint8_t>> gz = InvalidArgument("unset");
      time_mem("gzip", text.size(), [&] {
        gz = apps::CzipCompress(plain, apps::CzipOptions{});
        return gz.ok();
      });
      if (!gz.ok()) continue;
      time_mem("gunzip", gz->size(), [&] {
        auto back = apps::CzipDecompress(*gz);
        return back.ok() && back->size() == text.size() &&
               std::memcmp(back->data(), text.data(), text.size()) == 0;
      });
    }
  }

  // Self times: each step minus the step below, op by op, and the median of
  // those differences; proto is carved out of the RunMinion step together
  // with the device-side SpawnSync. The median keeps a rare flush,
  // compaction or host stall that lands in one step of one op from being
  // charged to that step's layer. A self time whose 95% interval holds 0 is
  // below the ladder's resolution (a small difference of two large,
  // separately timed steps) and is marked so rather than read as a cost.
  const std::string app_step = insitu ? "apps::Application::Run" : "kv::KvStore";
  std::vector<double> proto_t = T.at("proto::Serialize");
  for (std::size_t i = 0; i < n; ++i) proto_t[i] += T.at("proto::DeserializeMinion")[i];
  struct LayerSelf {
    std::string layer;
    MedianCi ci;
    bool resolved() const { return ci.lo > 0 || ci.hi < 0; }
  };
  std::vector<LayerSelf> self;
  for (const auto& [layer, per_op] :
       std::vector<std::pair<std::string, std::vector<double>>>{
           {"client", Minus(T.at("Cluster::RunAll"), T.at("CompStorHandle::RunMinion"))},
           {"proto", proto_t},
           {"nvme", Minus(Minus(T.at("CompStorHandle::RunMinion"),
                                T.at("TaskRuntime::SpawnSync")),
                          proto_t)},
           {"isps", Minus(T.at("TaskRuntime::SpawnSync"), T.at(app_step))},
           {"app", Minus(T.at(app_step), T.at("fs::Filesystem"))},
           {"fs", Minus(T.at("fs::Filesystem"), T.at("ftl::Ftl"))},
           {"ftl", Minus(T.at("ftl::Ftl"), T.at("ecc::PageCodec"))},
           {"ecc", Minus(T.at("ecc::PageCodec"), T.at("util::Crc32c"))},
           {"crc32c", T.at("util::Crc32c")},
       }) {
    self.push_back({layer, MedianWithCi(per_op)});
  }
  const double mb_per_op = static_cast<double>(ladder_bytes) / 1e6 / static_cast<double>(n);
  double explained = 0;
  for (const LayerSelf& l : self) {
    const double us = l.ci.median;
    explained += us;
    out.Add(l.layer + ".self_us", us, "us", "wall");
    out.Add(l.layer + ".self_us_per_mb", mb_per_op > 0 ? us / mb_per_op : 0, "us/MB", "wall");
    if (!l.resolved()) {
      std::printf("layer %s: self time %.4g us/op is below resolution (95%% interval %.4g to "
                  "%.4g over %zu ops)\n",
                  l.layer.c_str(), us, l.ci.lo, l.ci.hi, n);
    }
  }
  const double coverage_pct = e2e_serial_us > 0 ? 100.0 * explained / e2e_serial_us : 0;
  out.Add("trace.coverage_pct", coverage_pct, "%", "wall");
  out.Add("trace.overhead_pct", e2e_us > 0 ? 100.0 * (e2e_traced_us - e2e_us) / e2e_us : 0, "%",
          "wall");
  out.Add("trace.spans", static_cast<double>(spans.size()), "count", "count");
  out.Add("trace.dropped_spans", static_cast<double>(spans.dropped()), "count", "count");

  // Per-layer figures from the untraced phase and the ladder.
  out.Add("client.op_p50_us", Quantile(traced.op_us, 0.50), "us", "wall");
  out.Add("client.op_p99_us", Quantile(traced.op_us, 0.99), "us", "wall");
  out.Add("client.frontier_us", self[0].ci.median, "us", "wall");
  out.Add("client.retries", static_cast<double>(retries), "count", "count");
  out.Add("frontier.peak_in_flight", static_cast<double>(frontier_after.peak_in_flight),
          "count", "count");
  out.Add("proto.encode_us", enc_us, "us", "wall");
  out.Add("proto.decode_us", dec_us, "us", "wall");
  out.Add("proto.bytes_per_op", static_cast<double>(proto_bytes) / static_cast<double>(n),
          "B", "count");
  out.Add("nvme.roundtrip_us", self[2].ci.median, "us", "wall");
  const double minions = static_cast<double>(std::max<std::uint64_t>(plain.minions, 1));
  out.Add("nvme.vendor_commands", delta.at("nvme.vendor_commands"), "count", "count");
  out.Add("nvme.cmd_us.count", delta.at("nvme.cmd_us.count"), "count", "count");
  out.Add("nvme.cmd_us.sum", delta.at("nvme.cmd_us.sum"), "us", "model");
  out.Add("link.bytes_per_op", static_cast<double>(plain.wire_bytes) / minions, "B", "count");
  out.Add("isps.task_us", U.at("TaskRuntime::SpawnSync"), "us", "wall");
  out.Add("isps.model_task_us", plain.model_task_s * 1e6 / minions, "us", "model");
  out.Add("isps.makespan_s", plain.model_makespan_s, "s", "model");
  out.Add("isps.utilization",
          plain.model_capacity_s > 0 ? plain.model_busy_s / plain.model_capacity_s : 0, "1",
          "model");
  out.Add("fs.read_us_per_mb", fs_read_bytes ? fs_read_us / (fs_read_bytes / 1e6) : 0, "us/MB",
          "wall");
  out.Add("fs.write_us_per_mb", fs_write_bytes ? fs_write_us / (fs_write_bytes / 1e6) : 0,
          "us/MB", "wall");
  out.Add("journal.commits_per_op", delta.at("journal.commits") / phase_minions, "1", "count");
  out.Add("journal.cksum_checks", delta.at("journal.cksum_checks"), "count", "count");
  out.Add("ftl.read_us", ftl_rd ? ftl_rd_us / static_cast<double>(ftl_rd) : 0, "us", "wall");
  out.Add("ftl.write_us", ftl_wr ? ftl_wr_us / static_cast<double>(ftl_wr) : 0, "us", "wall");
  const double host_reads = delta.at("ftl.host_page_reads");
  const double host_writes = delta.at("ftl.host_page_writes");
  out.Add("ftl.read_amp", host_reads > 0 ? delta.at("ftl.flash_reads") / host_reads : 0, "1",
          "count");
  out.Add("ftl.waf", host_writes > 0 ? delta.at("ftl.flash_programs") / host_writes : 0, "1",
          "count");
  out.Add("ftl.gc.relocations", delta.at("ftl.gc.relocations"), "count", "count");
  out.Add("ftl.cache_read_hit_ratio",
          host_reads > 0 ? delta.at("ftl.cache.read_hits") / host_reads : 0, "1", "count");
  out.Add("ftl.ecc_corrected_words", delta.at("ftl.ecc_corrected_words"), "count", "count");
  const std::uint64_t dec_pages = ftl_rd, enc_pages = ftl_wr;
  out.Add("ecc.decode_us", dec_pages ? ecc_dec_us / static_cast<double>(dec_pages) : 0, "us",
          "wall");
  out.Add("ecc.encode_us", enc_pages ? ecc_enc_us / static_cast<double>(enc_pages) : 0, "us",
          "wall");
  out.Add("crc32c.us_per_mb",
          crc_bytes ? U.at("util::Crc32c") * static_cast<double>(n) / (static_cast<double>(crc_bytes) / 1e6) : 0,
          "us/MB", "wall");
  out.Add("flash.reads", delta.at("ftl.flash_reads"), "count", "count");
  out.Add("flash.programs", delta.at("ftl.flash_programs"), "count", "count");
  out.Add("flash.busiest_die_s", delta.at("flash.busiest_die_s"), "s", "model");
  out.Add("flash.read_us",
          delta.at("flash.read_us.count") > 0
              ? delta.at("flash.read_us.sum") / delta.at("flash.read_us.count")
              : 0,
          "us", "model");
  out.Add("kv.cache_hits", delta.at("kv.cache_hits"), "count", "count");
  out.Add("kv.cache_misses", delta.at("kv.cache_misses"), "count", "count");
  const double lookups = delta.at("kv.cache_hits") + delta.at("kv.cache_misses");
  out.Add("kv.cache_hit_ratio", lookups > 0 ? delta.at("kv.cache_hits") / lookups : 0, "1",
          "count");
  out.Add("kv.flushes", delta.at("kv.flushes"), "count", "count");
  out.Add("kv.compactions", delta.at("kv.compactions"), "count", "count");
  for (const char* op : {"get", "put", "scan"}) {
    const auto it = kv_us.find(op);
    out.Add(std::string("kv.") + op + "_us", it != kv_us.end() ? Mean(it->second) : 0, "us",
            "wall");
  }
  for (const char* app : {"grep", "gawk", "gzip", "gunzip"}) {
    const auto it = app_mem.find(app);
    out.Add(std::string("apps.us_per_mb.") + app,
            it != app_mem.end() && it->second.second > 0
                ? it->second.first / (it->second.second / 1e6)
                : 0,
            "us/MB", "wall");
  }
  const double pj = plain.model_joules;
  out.Add("energy.active_j", plain.active_j, "J", "model");
  out.Add("energy.idle_j",
          isps::IspsCpuProfile().package_idle_watts * plain.model_makespan_s *
              static_cast<double>(kDevices),
          "J", "model");
  out.Add("energy.storage_j",
          pj - plain.active_j -
              isps::IspsCpuProfile().package_idle_watts * plain.model_makespan_s *
                  static_cast<double>(kDevices),
          "J", "model");
  out.Add("peak_rss_mb", PeakRssMb(), "MB", "wall");

  // Report: the self-time table plus span/coverage/overhead accounting.
  if (!a.report_dir.empty()) {
    const std::string base = a.report_dir + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed);
    if (!spans.WriteJsonLines(base + ".spans.jsonl")) {
      std::fprintf(stderr, "cannot write %s.spans.jsonl\n", base.c_str());
    }
    std::FILE* f = std::fopen((base + ".json").c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %" PRIu64
                      ",\n  \"git_describe\": \"%s\",\n  \"ladder_ops\": %zu,\n"
                      "  \"ladder_mb_per_op\": %.9g,\n  \"e2e_serial_us_per_op\": %.6g,\n"
                      "  \"e2e_thread_us_per_op\": %.6g,\n"
                      "  \"e2e_traced_thread_us_per_op\": %.6g,\n  \"layers\": [\n",
                   a.workload.c_str(), a.seed, JsonEscape(a.describe).c_str(), n, mb_per_op,
                   e2e_serial_us, e2e_us, e2e_traced_us);
      for (std::size_t i = 0; i < self.size(); ++i) {
        const LayerSelf& l = self[i];
        std::fprintf(f,
                     "    {\"layer\": \"%s\", \"self_us_per_op\": %.6g, "
                     "\"self_us_per_mb\": %.6g, \"share_pct\": %.4g, "
                     "\"ci95_us_per_op\": [%.6g, %.6g], \"resolved\": %s}%s\n",
                     l.layer.c_str(), l.ci.median,
                     mb_per_op > 0 ? l.ci.median / mb_per_op : 0,
                     e2e_serial_us > 0 ? 100.0 * l.ci.median / e2e_serial_us : 0, l.ci.lo,
                     l.ci.hi, l.resolved() ? "true" : "false", i + 1 < self.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"steps_us_per_op\": {");
      bool first = true;
      for (const auto& [k, v] : U) {
        std::fprintf(f, "%s\n    \"%s\": %.6g", first ? "" : ",", k.c_str(), v);
        first = false;
      }
      std::fprintf(f, "\n  },\n  \"coverage_pct\": %.6g,\n  \"overhead_pct\": %.6g,\n"
                      "  \"spans\": %zu,\n  \"dropped_spans\": %" PRIu64 ",\n"
                      "  \"registry_delta\": {",
                   coverage_pct, e2e_us > 0 ? 100.0 * (e2e_traced_us - e2e_us) / e2e_us : 0,
                   spans.size(), spans.dropped());
      first = true;
      for (const auto& [k, v] : delta) {
        std::fprintf(f, "%s\n    \"%s\": %.9g", first ? "" : ",", k.c_str(), v);
        first = false;
      }
      std::fprintf(f, "\n  }\n}\n");
      std::fclose(f);
    }
  }
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--trace") {
      a->trace = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--report-dir") {
      a->report_dir = v;
    } else if (k == "--describe") {
      a->describe = v;
    } else {
      return false;
    }
  }
  return a->workload == "insitu-scan" || a->workload == "insitu-compress" ||
         a->workload == "kv-zipf";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload insitu-scan|insitu-compress|kv-zipf "
                 "--seed N --seconds S [--trace] [--report-dir DIR] "
                 "[--describe TEXT]\n");
    return 2;
  }
  // A fixed threshold turns off glibc's dynamic one, whose history-dependent
  // growth made peak_rss_mb jump by ~100 MB on some runs and not others.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Outcome out;
  if (a.trace) {
    TracedRun(a, out);
  } else {
    TimedRun(a, out);
  }
  for (const std::string& e : out.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());

  std::printf("workload %s, seed %" PRIu64 ", tree %s\n", a.workload.c_str(), a.seed,
              a.describe.c_str());
  std::printf("%-28s %16s  %-7s %s\n", "metric", "value", "unit", "clock");
  for (const Metric& m : out.metrics) {
    std::printf("%-28s %16.6g  %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.clock.c_str());
  }
  std::printf("RESULT {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": {",
              a.workload.c_str(), a.seed, out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"clock\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str(), m.clock.c_str());
  }
  std::printf("}}\n");
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
