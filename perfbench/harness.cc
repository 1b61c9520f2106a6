#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "common/rng.h"
#include "serve/json.h"
#include "serve/socket.h"

namespace perfbench {

using msq::Algorithm;
using msq::MonotonicSeconds;

// ---------------------------------------------------------------------------
// Sizing

namespace {

// Copies the fields of `object` that it names into `s`; false with `error`
// set on a field of the wrong type or an unknown network.
bool ReadSizingFields(const msq::serve::JsonValue& object, Sizing* s,
                      std::string* error) {
  for (const auto& [key, value] : object.AsObject()) {
    std::size_t* count = nullptr;
    if (key == "qsets") count = &s->qsets;
    if (key == "qsize") count = &s->qsize;
    if (key == "zipf_pass") count = &s->zipf_pass;
    if (key == "speedup_workers") count = &s->speedup_workers;
    if (key == "cache_mb") count = &s->cache_mb;
    if (key == "mutate_every") count = &s->mutate_every;
    if (key == "warmup_requests") count = &s->warmup_requests;
    if (key == "nodes") count = &s->nodes;
    if (key == "edges") count = &s->edges;
    if (key == "objects") count = &s->objects;
    if (key == "graph_pages") count = &s->graph_pages;
    if (key == "index_pages") count = &s->index_pages;
    if (key == "frames") count = &s->frames;
    bool* flag = nullptr;
    if (key == "every_algorithm") flag = &s->every_algorithm;
    if (key == "cache") flag = &s->cache;
    if (key == "served") flag = &s->served;
    double* real = nullptr;
    if (key == "scale") real = &s->scale;
    if (key == "tail_quantile") real = &s->tail_quantile;
    std::uint64_t* seed = nullptr;
    if (key == "network_seed") seed = &s->network_seed;
    if (key == "qset_seed_base") seed = &s->qset_seed_base;
    const bool whole = value.is_number() && value.AsNumber() >= 0.0 &&
                       std::floor(value.AsNumber()) == value.AsNumber();
    if ((count != nullptr || seed != nullptr) && !whole) {
      *error = key + " is not a whole number";
      return false;
    }
    if (count != nullptr) *count = static_cast<std::size_t>(value.AsNumber());
    if (seed != nullptr) *seed = static_cast<std::uint64_t>(value.AsNumber());
    if (flag != nullptr) {
      if (!value.is_bool()) {
        *error = key + " is not a boolean";
        return false;
      }
      *flag = value.AsBool();
    }
    if (real != nullptr) {
      if (!value.is_number()) {
        *error = key + " is not a number";
        return false;
      }
      *real = value.AsNumber();
    }
    if (key == "network") {
      constexpr msq::NetworkClass kClasses[] = {
          msq::NetworkClass::kCA, msq::NetworkClass::kAU,
          msq::NetworkClass::kNA, msq::NetworkClass::kCNT};
      bool known = false;
      for (const msq::NetworkClass cls : kClasses) {
        if (value.is_string() && value.AsString() == msq::NetworkClassName(cls)) {
          s->network = cls;
          known = true;
        }
      }
      if (!known) {
        *error = "unknown network";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool LoadSizing(const std::string& path, const std::string& name, bool smoke,
                Sizing* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  const msq::StatusOr<msq::serve::JsonValue> doc =
      msq::serve::ParseJson(text);
  const msq::serve::JsonValue* workloads =
      doc.ok() && doc.value().is_object() ? doc.value().Find("workloads")
                                          : nullptr;
  if (workloads == nullptr || !workloads->is_array()) {
    *error = path + ": no \"workloads\" array";
    return false;
  }
  for (const msq::serve::JsonValue& entry : workloads->AsArray()) {
    const msq::serve::JsonValue* entry_name =
        entry.is_object() ? entry.Find("name") : nullptr;
    if (entry_name == nullptr || !entry_name->is_string() ||
        entry_name->AsString() != name) {
      continue;
    }
    Sizing s;
    s.name = name;
    if (!ReadSizingFields(entry, &s, error)) return false;
    if (smoke) {
      const msq::serve::JsonValue* smaller = entry.Find("smoke");
      if (smaller == nullptr || !smaller->is_object()) {
        *error = name + ": no smoke sizes";
        return false;
      }
      if (!ReadSizingFields(*smaller, &s, error)) return false;
      s.nodes = s.edges = s.objects = s.graph_pages = s.index_pages =
          s.frames = 0;
    }
    if (s.qsets == 0 || s.speedup_workers == 0) {
      *error = name + ": qsets and speedup_workers must be positive";
      return false;
    }
    *out = s;
    return true;
  }
  *error = "unknown workload '" + name + "'";
  return false;
}

std::string CheckRecordedSizes(const Sizing& sizing, msq::Workload& workload) {
  const struct {
    const char* what;
    std::size_t recorded;
    std::size_t built;
  } sizes[] = {
      {"nodes", sizing.nodes, workload.network().node_count()},
      {"edges", sizing.edges, workload.network().edge_count()},
      {"objects", sizing.objects, workload.objects().size()},
      {"graph_pages", sizing.graph_pages,
       workload.dataset().graph_pager->page_count()},
      {"index_pages", sizing.index_pages,
       workload.index_buffer().disk()->PageCount()},
      {"frames", sizing.frames, workload.graph_buffer().frame_count()},
  };
  for (const auto& size : sizes) {
    if (size.recorded != 0 && size.recorded != size.built) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: recorded %zu %s, built %zu",
                    sizing.name.c_str(), size.recorded, size.what, size.built);
      return buf;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Pool and stream

Pool BuildPool(const Sizing& sizing, const msq::Workload& workload) {
  constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                       Algorithm::kLbc};
  Pool pool;
  for (std::size_t i = 0; i < sizing.qsets; ++i) {
    pool.qsets.push_back(
        workload.SampleQuery(sizing.qsize, sizing.qset_seed_base + i));
    if (sizing.every_algorithm) {
      for (const Algorithm algorithm : kAlgorithms) {
        pool.entries.push_back({i, algorithm});
      }
    } else {
      pool.entries.push_back({i, kAlgorithms[i % 3]});
    }
  }
  std::vector<std::size_t>& pass = pool.pass;
  if (sizing.zipf_pass == 0) {
    for (std::size_t e = 0; e < pool.entries.size(); ++e) pass.push_back(e);
  } else {
    double total = 0.0;
    for (std::size_t r = 0; r < pool.entries.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
    }
    for (std::size_t r = 0; r < pool.entries.size(); ++r) {
      const double share = static_cast<double>(sizing.zipf_pass) /
                           static_cast<double>(r + 1) / total;
      const std::size_t copies = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(share)));
      pass.insert(pass.end(), copies, r);
    }
  }
  return pool;
}

Stream::Stream(const Pool* pool, std::uint64_t seed)
    : pool_(pool), seed_(seed) {
  Reshuffle();
}

void Stream::Reshuffle() {
  order_ = pool_->pass;
  msq::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + cycle_ * 7919 + 1);
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng.NextBounded(i)]);
  }
  position_ = 0;
  ++cycle_;
}

std::size_t Stream::Next(std::uint64_t* pass) {
  std::lock_guard<std::mutex> lock(mu_);
  if (position_ == order_.size()) Reshuffle();
  if (pass != nullptr) *pass = cycle_;
  return order_[position_++];
}

// ---------------------------------------------------------------------------
// Spans

namespace {
std::mutex g_span_mu;
std::vector<SpanRecord> g_spans;
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_request{1};
}  // namespace

std::atomic<bool> Spans::enabled_{false};

void Spans::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t Spans::NewId() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Spans::Add(const char* name, double start, double end,
                         std::uint64_t parent, std::uint64_t request,
                         std::uint64_t id) {
  if (!enabled()) return 0;
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(g_span_mu);
  g_spans.push_back(span);
  return span.id;
}

std::vector<SpanRecord> Spans::Snapshot() {
  std::lock_guard<std::mutex> lock(g_span_mu);
  return g_spans;
}

bool Spans::Write(const std::string& path, const std::string& workload,
                  std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<SpanRecord> spans = Snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"spans\":[",
               workload.c_str(), seed);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 "}",
                 i > 0 ? "," : "", s.name, s.start * 1e6, s.end * 1e6, s.id,
                 s.parent, s.request);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent,
                       std::uint64_t request)
    : name_(name), parent_(parent), request_(request) {
  if (!Spans::enabled()) return;
  id_ = Spans::NewId();
  start_ = MonotonicSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Spans::Add(name_, start_, MonotonicSeconds(), parent_, request_, id_);
}

// ---------------------------------------------------------------------------
// Answers and statistics

std::uint64_t AnswerDigest(const msq::SkylineResult& result) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(result.skyline.size());
  for (const msq::SkylineEntry& entry : result.skyline) {
    mix(entry.object);
    mix(entry.vector.size());
    for (const msq::Dist d : entry.vector) {
      std::uint64_t bits = 0;
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

std::vector<msq::ObjectId> SortedIds(const msq::SkylineResult& result) {
  std::vector<msq::ObjectId> ids;
  for (const msq::SkylineEntry& entry : result.skyline) {
    ids.push_back(entry.object);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t NextRequestId() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Windows

double Window::Qps() const {
  double answered = 0.0;
  for (const Sample& s : samples) {
    if (!s.ok || s.done <= s.submit) continue;
    const double inside = std::min(s.done, end) - std::max(s.submit, begin);
    if (inside > 0.0) answered += inside / (s.done - s.submit);
  }
  return answered / (end - begin);
}

PassFigures Window::Passes(std::size_t pass_size, double tail) const {
  struct Pass {
    std::size_t queries = 0;
    bool ok = true;
    double first = 0.0, last = 0.0;
    std::vector<double> latencies;
  };
  std::map<std::uint64_t, Pass> passes;
  for (const Sample& s : samples) {
    Pass& p = passes[s.pass];
    if (p.latencies.empty() || s.submit < p.first) p.first = s.submit;
    p.last = std::max(p.last, s.done);
    p.ok = p.ok && s.ok;
    if (!s.mutation) ++p.queries;
    p.latencies.push_back((s.done - s.submit) * 1e3);
  }
  PassFigures out;
  std::vector<double> latencies;
  double seconds = 0.0;
  for (const auto& [number, p] : passes) {
    if (p.queries != pass_size || !p.ok || p.last <= p.first) continue;
    ++out.passes;
    seconds += p.last - p.first;
    latencies.insert(latencies.end(), p.latencies.begin(), p.latencies.end());
  }
  out.qps = seconds > 0.0 ? static_cast<double>(latencies.size()) / seconds
                          : 0.0;
  out.p50_ms = Quantile(latencies, 0.5);
  out.tail_ms = Quantile(latencies, tail);
  return out;
}

Window RunExecutorWindow(msq::QueryExecutor& executor, const Pool& pool,
                         Stream& stream, std::size_t outstanding,
                         double seconds) {
  Window window;
  std::vector<std::vector<Sample>> per_client(outstanding);
  window.begin = MonotonicSeconds();
  window.end = window.begin + seconds;
  const double end = window.end;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < outstanding; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Sample>& out = per_client[c];
      while (true) {
        if (MonotonicSeconds() >= end) break;
        Sample sample;
        sample.entry = stream.Next(&sample.pass);
        sample.request = NextRequestId();
        sample.submit = MonotonicSeconds();
        const PoolEntry& entry = pool.entries[sample.entry];
        msq::QueryRequest request;
        request.algorithm = entry.algorithm;
        request.spec = pool.qsets[entry.qset];
        msq::SkylineResult result =
            executor.Submit(std::move(request)).get();
        sample.done = MonotonicSeconds();
        sample.exec_start = result.exec_started_at;
        sample.exec_finish = result.exec_finished_at;
        sample.ok = result.status.ok() && !result.truncated;
        sample.digest = AnswerDigest(result);
        sample.stats = result.stats;
        if (Spans::enabled()) {
          const std::uint64_t root = Spans::Add(
              "exec.QueryExecutor::Submit", sample.submit, sample.done, 0,
              sample.request);
          Spans::Add("exec.queue", sample.submit, sample.exec_start, root,
                     sample.request);
          Spans::Add("exec.run", sample.exec_start, sample.exec_finish, root,
                     sample.request);
        }
        out.push_back(std::move(sample));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::vector<Sample>& v : per_client) {
    window.samples.insert(window.samples.end(), v.begin(), v.end());
  }
  return window;
}

std::string EncodeQueryLine(const Pool& pool, std::size_t entry) {
  const PoolEntry& e = pool.entries[entry];
  const msq::SkylineQuerySpec& spec = pool.qsets[e.qset];
  std::string out = "\"algo\":\"";
  out += msq::AlgorithmName(e.algorithm);
  out += "\",\"sources\":[";
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), "%s{\"edge\":%u,\"offset\":%.17g}",
                  i > 0 ? "," : "", spec.sources[i].edge,
                  spec.sources[i].offset);
    out += buf;
  }
  out += "]}";
  return out;
}

namespace {

// One closed-loop NDJSON connection of the served churn workload.
// Mutations follow the per-connection pattern update, update, insert,
// update, update, delete: mostly edge-weight updates, with inserts and
// deletes balanced (a delete removes the object this connection inserted
// last), so the world neither grows nor drifts. Updated lengths stay
// within [1, 1.5] x the build-time length of the edge.
void ChurnConnection(std::uint16_t port, Stream& stream,
                     const ChurnPlan& plan, std::size_t index, double end,
                     std::vector<Sample>* out) {
  msq::Rng rng(plan.seed * 0x2545f4914f6cdd1dULL + index * 104729 + 17);
  std::vector<std::uint64_t> inserted;
  std::size_t mutation_slot = 0;
  std::uint64_t pass = 0;  // of this connection's last query
  int fd = -1;
  std::unique_ptr<msq::serve::FrameReader> reader;
  const std::size_t edge_count = plan.original_lengths.size();
  for (std::size_t n = 0;; ++n) {
    const double now = MonotonicSeconds();
    if (now >= end) break;
    if (fd < 0) {
      msq::StatusOr<int> conn = msq::serve::ConnectTcp("127.0.0.1", port);
      if (!conn.ok()) {
        usleep(1000);
        continue;
      }
      fd = conn.value();
      (void)msq::serve::SetSocketTimeouts(fd, 30.0, 10.0);
      reader = std::make_unique<msq::serve::FrameReader>(fd, 1u << 22);
    }
    Sample sample;
    sample.request = NextRequestId();
    char head[64];
    std::snprintf(head, sizeof(head), "{\"id\":\"r%" PRIu64 "\",",
                  sample.request);
    std::string line = head;
    enum { kQuery, kUpdate, kInsert, kDelete } op = kQuery;
    if (plan.mutate_every > 0 && n % plan.mutate_every ==
                                     plan.mutate_every - 1) {
      static constexpr int kPattern[] = {kUpdate, kUpdate, kInsert,
                                         kUpdate, kUpdate, kDelete};
      op = static_cast<decltype(op)>(kPattern[mutation_slot++ % 6]);
      if (op == kDelete && inserted.empty()) op = kInsert;
      sample.mutation = true;
      char buf[128];
      const std::uint32_t edge =
          static_cast<std::uint32_t>(rng.NextBounded(edge_count));
      switch (op) {
        case kUpdate:
          std::snprintf(buf, sizeof(buf),
                        "\"op\":\"update_edge\",\"edge\":%u,"
                        "\"length\":%.17g}",
                        edge,
                        plan.original_lengths[edge] *
                            (1.0 + 0.5 * rng.NextDouble()));
          break;
        case kInsert:
          std::snprintf(buf, sizeof(buf),
                        "\"op\":\"insert_object\",\"edge\":%u,"
                        "\"offset\":%.17g}",
                        edge, 0.5 * plan.original_lengths[edge]);
          break;
        default:
          std::snprintf(buf, sizeof(buf),
                        "\"op\":\"delete_object\",\"object\":%" PRIu64 "}",
                        inserted.back());
          inserted.pop_back();
          break;
      }
      line += buf;
    } else {
      sample.entry = stream.Next(&pass);
      line += plan.encoded[sample.entry];
    }
    line += "\n";
    sample.pass = pass;
    sample.submit = MonotonicSeconds();
    msq::StatusOr<std::string> reply =
        msq::Status::IoError("request not sent");
    if (msq::serve::WriteAll(fd, line).ok()) reply = reader->ReadLine();
    sample.done = MonotonicSeconds();
    if (!reply.ok()) {
      ::close(fd);
      fd = -1;
      out->push_back(sample);
      continue;
    }
    const std::string& text = reply.value();
    if (op == kQuery) {
      sample.ok = text.find("\"status\":\"OK\",\"truncated\":false") !=
                  std::string::npos;
    } else {
      const msq::StatusOr<msq::serve::JsonValue> json =
          msq::serve::ParseJson(text);
      sample.ok = json.ok() && json.value().is_object() &&
                  json.value().Find("error") == nullptr;
      if (sample.ok && op == kInsert) {
        const msq::serve::JsonValue* id = json.value().Find("object");
        sample.ok = id != nullptr && id->is_number();
        if (sample.ok) {
          inserted.push_back(static_cast<std::uint64_t>(id->AsNumber()));
        }
      }
      if (sample.ok && op == kDelete) {
        const msq::serve::JsonValue* removed = json.value().Find("removed");
        sample.ok = removed != nullptr && removed->is_bool() &&
                    removed->AsBool();
      }
    }
    if (Spans::enabled()) {
      Spans::Add(sample.mutation ? "serve.client.mutation"
                                 : "serve.client.query",
                 sample.submit, sample.done, 0, sample.request);
    }
    out->push_back(sample);
  }
  if (fd >= 0) ::close(fd);
}

}  // namespace

Window RunServedWindow(std::uint16_t port, Stream& stream,
                       const ChurnPlan& plan, std::size_t connections,
                       double seconds) {
  Window window;
  std::vector<std::vector<Sample>> per_conn(connections);
  window.begin = MonotonicSeconds();
  window.end = window.begin + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(ChurnConnection, port, std::ref(stream),
                         std::cref(plan), c, window.end, &per_conn[c]);
  }
  for (std::thread& t : threads) t.join();
  for (std::vector<Sample>& v : per_conn) {
    window.samples.insert(window.samples.end(), v.begin(), v.end());
  }
  return window;
}

}  // namespace perfbench
