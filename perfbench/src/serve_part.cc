// Serving part of a workload: a BitrussService with persistence on, one
// generator (the calling thread) and two closed-loop readers.  The part
// runs kServeRounds rounds, each on a fresh service over the same seed
// graph with its own stream:
//
//   burst     the generator submits in.burst updates as fast as
//             backpressure allows (sleeping briefly when refused), then
//             Drain()s; the round's throughput is in.burst over that time.
//   paced     the generator submits in.paced updates at the workload's
//             fixed rate (open loop); each update's latency runs from its
//             due time to the first snapshot a reader saw covering it.
//   recovery  Shutdown(false), then BitrussService::Recover over the WAL
//             left behind; the recovered state must equal the last
//             snapshot.
//
// The readers run through burst and paced phases: each loop acquires the
// current snapshot, makes 32 point reads off it and, every 256th loop, a
// top-10 scan.  A read is one point read or one scan.  The end-to-end
// metrics are medians over the rounds.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/decompose.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_bitruss.h"
#include "open_loop.h"
#include "parts.h"
#include "persist/snapshot_io.h"
#include "persist/wal.h"
#include "serve/bitruss_service.h"
#include "stats.h"

namespace perfbench {

using bitruss::BipartiteGraph;
using bitruss::BitrussService;
using bitruss::PhiSnapshot;

namespace {

constexpr int kReaders = 2;
constexpr int kPointReadsPerSnapshot = 32;
constexpr int kTopKEvery = 256;   // reader loops between top-k scans
constexpr int kSampleEvery = 16;  // traced: reader loops between samples
constexpr std::size_t kTopK = 10;
constexpr auto kRefusalBackoff = std::chrono::microseconds(50);
constexpr auto kSpinAhead = std::chrono::microseconds(200);
/// Share of the burst replayed by the warm-up service.
constexpr double kWarmUpShare = 0.1;

bitruss::EdgeUpdate ToUpdate(const StreamOp& op) {
  return {op.insert ? bitruss::EdgeUpdate::Kind::kInsert
                    : bitruss::EdgeUpdate::Kind::kDelete,
          op.upper, op.lower};
}

double QuantileOrZero(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : Quantile(samples, q);
}

struct ReaderLog {
  std::uint64_t reads = 0;
  std::uint64_t checksum = 0;  // keeps the reads observable
  std::vector<Observation> observations;
  // Traced run only.
  std::vector<double> staleness;
  std::vector<double> acquire_ns;
  std::vector<double> point_ns;  // batch-timed, per read
  std::vector<double> topk_us;
};

void ReaderLoop(const BitrussService& service, const std::atomic<bool>& stop,
                std::atomic<std::uint64_t>& seen, Clock::time_point epoch,
                bool traced, std::uint64_t seed, ReaderLog* log) {
  Rng rng(seed);
  std::uint64_t last_seen = 0;
  for (std::uint64_t loop = 0; !stop.load(std::memory_order_relaxed); ++loop) {
    const bool sample = traced && loop % kSampleEvery == 0;
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const PhiSnapshot> snap = service.Snapshot();
    const Clock::time_point t1 = Clock::now();
    if (snap->applied_updates > last_seen) {
      last_seen = snap->applied_updates;
      log->observations.push_back(
          {last_seen, std::chrono::duration<double>(t1 - epoch).count()});
      seen.store(last_seen, std::memory_order_release);
    }
    if (sample) {
      log->acquire_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      const std::uint64_t applied = service.AppliedUpdates();
      log->staleness.push_back(static_cast<double>(
          applied > snap->applied_updates ? applied - snap->applied_updates
                                          : 0));
    }
    for (int i = 0; i < kPointReadsPerSnapshot; ++i) {
      log->checksum += snap->Phi(static_cast<bitruss::EdgeId>(
          rng.Below(snap->num_slots)));
    }
    if (sample) {
      log->point_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t1).count() /
          kPointReadsPerSnapshot);
    }
    log->reads += kPointReadsPerSnapshot;
    if (loop % kTopKEvery == kTopKEvery - 1) {
      const Clock::time_point t2 = Clock::now();
      log->checksum += snap->TopKPhi(kTopK).size();
      if (traced) {
        log->topk_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t2)
                .count());
      }
      ++log->reads;
    }
  }
}

/// The closed-loop readers of one Drive(); stops and joins them on every
/// path out of it.
class ReaderThreads {
 public:
  ReaderThreads() = default;
  ReaderThreads(const ReaderThreads&) = delete;
  ReaderThreads& operator=(const ReaderThreads&) = delete;
  ~ReaderThreads() { StopAndJoin(); }

  void Start(const BitrussService& service, Clock::time_point epoch,
             bool traced, std::vector<ReaderLog>* logs) {
    logs->resize(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      threads_.emplace_back(ReaderLoop, std::cref(service), std::cref(stop_),
                            std::ref(seen_[r]), epoch, traced, 0x5eed + r,
                            &(*logs)[r]);
    }
  }

  /// Highest update count any reader has seen covered.
  std::uint64_t Seen() const {
    std::uint64_t m = 0;
    for (const auto& s : seen_) m = std::max(m, s.load(std::memory_order_acquire));
    return m;
  }

  void StopAndJoin() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  // Ordering: stop_ is a relaxed flag (the join orders everything else);
  // seen_[r] is release-stored by reader r, acquire-loaded by Seen().
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> seen_[kReaders] = {};
  std::vector<std::thread> threads_;  // last: started after what it uses
};

struct DriveResult {
  double burst_s = 0;
  std::uint64_t refusals = 0;
  std::uint64_t failed_submits = 0;
  std::vector<double> latency_s;  // paced, from due time; NaN if never seen
  std::vector<double> late_s;     // paced generator lateness
  double read_s = 0;
  std::uint64_t reads = 0;
  std::vector<ReaderLog> logs;
  std::uint64_t published = 0;  // snapshots published during the phases
  // Traced run only.
  std::vector<double> submit_us;
  std::uint64_t queue_depth_peak = 0;
};

/// Submits `op`, sleeping and retrying while the queue is full.
bool SubmitWithRetry(BitrussService& service, const StreamOp& op,
                     DriveResult* out, bool traced) {
  const bitruss::EdgeUpdate update = ToUpdate(op);
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const bitruss::Status status = service.Submit(update);
    if (status.ok()) {
      if (traced) {
        out->submit_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      return true;
    }
    if (status.code() != bitruss::StatusCode::kResourceExhausted) {
      return false;
    }
    ++out->refusals;
    std::this_thread::sleep_for(kRefusalBackoff);
  }
}

/// Runs the burst over ops [0, burst) and the paced phase over
/// [burst, burst + paced) against a fresh `service`, with the readers on.
DriveResult Drive(BitrussService& service, const std::vector<StreamOp>& ops,
                  std::size_t burst, std::size_t paced, double rate,
                  bool traced) {
  DriveResult out;
  const Clock::time_point epoch = Clock::now();
  const std::uint64_t base = service.AppliedUpdates();
  const std::uint64_t published_before = service.PublishedVersion();
  ReaderThreads readers;
  readers.Start(service, epoch, traced, &out.logs);

  const Clock::time_point burst_start = Clock::now();
  for (std::size_t i = 0; i < burst; ++i) {
    if (!SubmitWithRetry(service, ops[i], &out, traced)) ++out.failed_submits;
    if (traced && i % 64 == 0) {
      out.queue_depth_peak =
          std::max<std::uint64_t>(out.queue_depth_peak, service.QueueDepth());
    }
  }
  if (!service.Drain().ok()) ++out.failed_submits;
  out.burst_s = SecondsSince(burst_start);

  const double paced_start =
      std::chrono::duration<double>(Clock::now() - epoch).count() + 0.002;
  const OpenLoopSchedule schedule(paced_start, rate);
  for (std::size_t j = 0; j < paced; ++j) {
    const double due = schedule.Due(j);
    const Clock::time_point due_at =
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due));
    // Wake early and spin to the due time, so the generator's own wake-up
    // delay stays out of the latency it measures.
    std::this_thread::sleep_until(due_at - kSpinAhead);
    while (Clock::now() < due_at) {
    }
    out.late_s.push_back(
        std::chrono::duration<double>(Clock::now() - epoch).count() - due);
    if (!SubmitWithRetry(service, ops[burst + j], &out, traced)) {
      ++out.failed_submits;
    }
  }
  if (!service.Drain().ok()) ++out.failed_submits;

  // Let a reader see the covering snapshot Drain() waited for (bounded).
  const std::uint64_t target = base + burst + paced;
  const Clock::time_point wait_start = Clock::now();
  while (readers.Seen() < target && SecondsSince(wait_start) < 1.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  readers.StopAndJoin();
  out.read_s = SecondsSince(burst_start);
  out.published = service.PublishedVersion() - published_before;

  std::vector<Observation> observations;
  for (const ReaderLog& log : out.logs) {
    out.reads += log.reads;
    observations.insert(observations.end(), log.observations.begin(),
                        log.observations.end());
  }
  out.latency_s = LatenciesFromDue(
      schedule, FirstVisibleTimes(std::move(observations),
                                  base + burst + 1, paced));
  return out;
}

/// Latency samples that were observed, in ms; `missing` counts the rest.
std::vector<double> ObservedMs(const std::vector<double>& latency_s,
                               std::uint64_t* missing) {
  std::vector<double> ms;
  *missing = 0;
  for (const double s : latency_s) {
    if (std::isnan(s)) {
      ++*missing;
    } else {
      ms.push_back(s * 1e3);
    }
  }
  return ms;
}

void PrintTail(Report& report, const std::string& name,
               const std::vector<double>& samples, const char* unit) {
  const SupportedTail tail = HighestSupportedPercentile(samples);
  char line[200];
  std::snprintf(line, sizeof(line),
                "tail   %-34s n=%zu, p99 has %zu beyond; highest percentile "
                "with >=10 beyond: p%g = %.6g %s",
                name.c_str(), samples.size(), SamplesBeyond(samples, 0.99),
                tail.percentile, tail.value, unit);
  report.Line(line);
}

/// The final snapshot must equal a from-scratch Decompose of the edge set
/// the stream prefix leaves.
bool MatchesOracle(const PhiSnapshot& snap, const EdgeList& final_edges,
                   std::uint64_t expected_applied) {
  const BipartiteGraph g = BuildGraph(final_edges);
  const bitruss::BitrussResult oracle = bitruss::Decompose(g);
  std::map<bitruss::SupportT, std::uint64_t> counts;
  for (const bitruss::SupportT phi : oracle.phi) ++counts[phi];
  const std::vector<std::pair<bitruss::SupportT, std::uint64_t>> histogram(
      counts.begin(), counts.end());
  return snap.PhiHistogram() == histogram && snap.num_edges == g.NumEdges() &&
         snap.num_butterflies == oracle.total_butterflies &&
         snap.applied_updates == expected_applied;
}

bool SameState(const PhiSnapshot& a, const PhiSnapshot& b) {
  return a.applied_updates == b.applied_updates &&
         a.num_edges == b.num_edges && a.num_slots == b.num_slots &&
         a.num_butterflies == b.num_butterflies && a.phi == b.phi &&
         a.support == b.support && a.live == b.live;
}

}  // namespace

bitruss::BitrussServiceOptions ServiceOptions(const std::string& dir) {
  bitruss::BitrussServiceOptions options;
  options.persist.dir = dir;
  options.persist.fsync_policy = bitruss::persist::FsyncPolicy::kOsBuffered;
  // Durable snapshots (each fsynced) only at drain-shutdown: their disk
  // latency would otherwise dominate the spread of the sparse burst, and
  // recovery then replays each round's whole WAL.
  options.persist.snapshot_every_updates = 0;
  // A quarter of the library default, so that the hub burst (1260
  // updates a round at --seconds 30) also outruns the queue and meets
  // backpressure.
  options.queue_capacity = 1024;
  return options;
}

void WarmUpServe(const BipartiteGraph& seed, const Inputs& in,
                 RunContext& ctx) {
  const std::string dir = ctx.work_dir + "/warmup";
  const auto burst = static_cast<std::size_t>(
      std::ceil(kWarmUpShare * static_cast<double>(in.burst)));
  {
    BitrussService service(seed, ServiceOptions(dir));
    Drive(service, in.streams[0], burst, 0, 1.0, false);
    service.Shutdown(false);
  }
  std::filesystem::remove_all(dir);
}

void RunServe(const BipartiteGraph& seed, const Inputs& in, RunContext& ctx) {
  Report& report = *ctx.report;
  const std::size_t per_round = in.burst + in.paced;
  std::vector<double> throughput, visible_p50_ms, read_qps, recover_s;
  std::vector<double> all_visible_ms, late_ms;
  std::uint64_t failed_submits = 0, missing = 0, refusals = 0;
  std::uint64_t oracle_failures = 0, recovery_failures = 0;
  for (std::size_t round = 0; round < in.streams.size(); ++round) {
    const std::vector<StreamOp>& ops = in.streams[round];
    const std::string dir = ctx.work_dir + "/serve-" + std::to_string(round);
    DriveResult r;
    std::shared_ptr<const PhiSnapshot> final_snap;
    ReleaseFreeHeap();
    {
      BitrussService service(seed, ServiceOptions(dir));
      r = Drive(service, ops, in.burst, in.paced, in.paced_rate, false);
      final_snap = service.Snapshot();
      service.Shutdown(false);
    }

    std::uint64_t round_missing = 0;
    const std::vector<double> visible = ObservedMs(r.latency_s, &round_missing);
    throughput.push_back(static_cast<double>(in.burst) / r.burst_s);
    visible_p50_ms.push_back(QuantileOrZero(visible, 0.5));
    read_qps.push_back(static_cast<double>(r.reads) / r.read_s);
    all_visible_ms.insert(all_visible_ms.end(), visible.begin(), visible.end());
    for (const double late : r.late_s) late_ms.push_back(late * 1e3);
    failed_submits += r.failed_submits;
    missing += round_missing;
    refusals += r.refusals;
    if (!MatchesOracle(*final_snap, ApplyStream(in.serve_edges, ops, per_round),
                       per_round)) {
      ++oracle_failures;
    }

    // Crash recovery from the WAL left by Drain() and Shutdown(false).
    const Clock::time_point t0 = Clock::now();
    auto recovered = BitrussService::Recover(seed, ServiceOptions(dir));
    recover_s.push_back(SecondsSince(t0));
    bool ok = recovered.ok();
    if (ok) {
      ok = SameState(*recovered.value()->Snapshot(), *final_snap);
      recovered.value()->Shutdown(false);
    }
    if (!ok) ++recovery_failures;
    std::filesystem::remove_all(dir);
  }

  const std::size_t rounds = in.streams.size();
  std::string rounds_line = "rounds ";
  for (std::size_t i = 0; i < rounds; ++i) {
    char cell[96];
    std::snprintf(cell, sizeof(cell), "[%.4g/s %.3gms %.3gs] ", throughput[i],
                  visible_p50_ms[i], recover_s[i]);
    rounds_line += cell;
  }
  report.Line(rounds_line);
  report.Metric("update_throughput", Median(throughput), "updates/s", rounds);
  // Per layer only: it measures the writer's wake-up more than the
  // program, and ranged 0.17-0.96 ms between runs on a shared host.
  report.Info("visible_p50_ms", Median(visible_p50_ms), "ms", rounds);
  report.Metric("read_qps", Median(read_qps), "reads/s", rounds);
  report.Metric("recover_s", Median(recover_s), "s", rounds);
  PrintTail(report, "visible_ms (all rounds)", all_visible_ms, "ms");
  char line[160];
  std::snprintf(line, sizeof(line),
                "info   visible_p99_ms %.6g ms over all rounds; generator "
                "late p99 %.6g ms; %llu refusals",
                QuantileOrZero(all_visible_ms, 0.99),
                QuantileOrZero(late_ms, 0.99),
                static_cast<unsigned long long>(refusals));
  report.Line(line);
  report.Count("submits accepted", rounds * per_round, failed_submits);
  report.Count("paced updates became visible", rounds * in.paced, missing);
  report.Count("final snapshot equals oracle Decompose of the replayed edges",
               rounds, oracle_failures);
  report.Count("recovered state equals the pre-crash snapshot", rounds,
               recovery_failures);
}

namespace {

/// Times DynamicBipartiteGraph Insert/Delete alone: the butterfly
/// enumeration kernel under every repair.
void TraceSupportUpdates(const BipartiteGraph& seed,
                         const std::vector<StreamOp>& stream,
                         std::size_t total, RunContext& ctx) {
  Report& report = *ctx.report;
  SpanRecorder& spans = *ctx.spans;
  const std::uint32_t span = spans.Begin("dynamic.support_updates", 0, 20);
  bitruss::DynamicBipartiteGraph graph(seed);
  bitruss::UpdateDelta delta;
  std::vector<double> update_us;
  double busy_s = 0;
  std::uint64_t butterflies = 0;
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const StreamOp& op = stream[i];
    const bitruss::EdgeId slot =
        op.insert ? bitruss::kInvalidEdge
                  : graph.FindEdge(op.upper, graph.NumUpper() + op.lower);
    const Clock::time_point t0 = Clock::now();
    const bool ok = op.insert
                        ? graph.InsertEdge(op.upper, op.lower, &delta).ok()
                        : graph.DeleteEdge(slot, &delta).ok();
    const double dt = SecondsSince(t0);
    busy_s += dt;
    update_us.push_back(dt * 1e6);
    butterflies += delta.butterflies;
    if (!ok) ++failures;
  }
  spans.End(span);
  report.Count("DynamicBipartiteGraph applies the stream", total, failures);
  report.Metric("dynamic.support_update_us_p50", Quantile(update_us, 0.5),
                "us", update_us.size());
  report.Metric("dynamic.support_update_us_p99", Quantile(update_us, 0.99),
                "us", update_us.size());
  report.Metric("dynamic.ns_per_butterfly",
                butterflies > 0 ? busy_s * 1e9 / static_cast<double>(
                                                     butterflies)
                                : 0,
                "ns", butterflies);
}

/// Replays the stream directly on `inc` (seeded from the serving graph),
/// checks it against an oracle per edge, and returns the time the first
/// `burst` updates took.
double TraceReplay(const std::vector<StreamOp>& stream, std::size_t burst,
                   std::size_t total, bitruss::IncrementalBitruss& inc,
                   RunContext& ctx) {
  Report& report = *ctx.report;
  SpanRecorder& spans = *ctx.spans;
  const std::uint32_t replay_span = spans.Begin("dynamic.replay", 0, 21);
  std::vector<double> local_us;
  std::vector<double> fallback_ms;
  double local_s = 0;
  double fallback_s = 0;
  double burst_replay_s = 0;
  std::uint64_t enumerated = 0;
  std::uint64_t phi_changes = 0;
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const StreamOp& op = stream[i];
    const bitruss::EdgeId slot =
        op.insert ? bitruss::kInvalidEdge
                  : inc.Graph().FindEdge(op.upper,
                                         inc.Graph().NumUpper() + op.lower);
    const double start_s = spans.Now();
    const bool ok = op.insert ? inc.InsertEdge(op.upper, op.lower).ok()
                              : inc.DeleteEdge(slot).ok();
    const double end_s = spans.Now();
    const double dt = end_s - start_s;
    if (!ok) ++failures;
    const bitruss::IncrementalUpdateStats& stats = inc.LastUpdateStats();
    if (stats.fallback) {
      fallback_ms.push_back(dt * 1e3);
      fallback_s += dt;
      spans.Add("dynamic.fallback", replay_span, 100 + i, start_s, end_s);
    } else {
      local_us.push_back(dt * 1e6);
      local_s += dt;
    }
    if (i < burst) burst_replay_s += dt;
    enumerated += stats.enumerated_butterflies;
    phi_changes += stats.phi_changes;
  }
  spans.End(replay_span);
  report.Count("IncrementalBitruss applies the stream", total, failures);
  {
    const bitruss::GraphSnapshot snap = inc.Graph().Snapshot();
    const bitruss::BitrussResult oracle = bitruss::Decompose(snap.graph);
    bool ok = oracle.phi.size() == snap.slot_of_edge.size();
    for (std::size_t e = 0; ok && e < oracle.phi.size(); ++e) {
      ok = oracle.phi[e] == inc.Phi(snap.slot_of_edge[e]);
    }
    report.Check("IncrementalBitruss replay phi equals oracle per edge", ok);
  }
  report.Metric("dynamic.local_us_p50", QuantileOrZero(local_us, 0.5), "us",
                local_us.size());
  report.Metric("dynamic.local_us_p99", QuantileOrZero(local_us, 0.99), "us",
                local_us.size());
  report.Metric("dynamic.fallback_ms_p50", QuantileOrZero(fallback_ms, 0.5),
                "ms", fallback_ms.size());
  report.Metric("dynamic.fallback_ms_p99", QuantileOrZero(fallback_ms, 0.99),
                "ms", fallback_ms.size());
  report.Metric("dynamic.fallback_share",
                static_cast<double>(fallback_ms.size()) /
                    static_cast<double>(total),
                "fraction", total);
  report.Metric("dynamic.local_s_total", local_s, "s", local_us.size());
  report.Metric("dynamic.fallback_s_total", fallback_s, "s",
                fallback_ms.size());
  report.Metric("dynamic.enumerated_butterflies",
                static_cast<double>(enumerated), "count", total);
  report.Metric("dynamic.phi_changes", static_cast<double>(phi_changes),
                "count", total);

  return burst_replay_s;
}

/// The service itself with per-call sampling on; returns its burst time.
double TraceService(const BipartiteGraph& seed, const Inputs& in,
                    RunContext& ctx) {
  Report& report = *ctx.report;
  SpanRecorder& spans = *ctx.spans;
  const std::vector<StreamOp>& stream = in.streams[0];
  const std::size_t total = in.burst + in.paced;
  const std::string dir = ctx.work_dir + "/serve-traced";
  const std::uint32_t span = spans.Begin("serve.drive", 0, 22);
  BitrussService service(seed, ServiceOptions(dir));
  const DriveResult r =
      Drive(service, stream, in.burst, in.paced, in.paced_rate, true);
  const std::shared_ptr<const PhiSnapshot> final_snap = service.Snapshot();
  service.Shutdown(false);
  spans.End(span);
  std::uint64_t missing = 0;
  const std::vector<double> visible_ms = ObservedMs(r.latency_s, &missing);
  report.Count("submits accepted", total, r.failed_submits);
  report.Count("paced updates became visible", in.paced, missing);
  report.Check("final snapshot equals oracle Decompose of the replayed edges",
               MatchesOracle(*final_snap,
                             ApplyStream(in.serve_edges, stream, total),
                             total));

  std::vector<double> acquire_ns, point_ns, topk_us, staleness;
  for (const ReaderLog& log : r.logs) {
    acquire_ns.insert(acquire_ns.end(), log.acquire_ns.begin(),
                      log.acquire_ns.end());
    point_ns.insert(point_ns.end(), log.point_ns.begin(), log.point_ns.end());
    topk_us.insert(topk_us.end(), log.topk_us.begin(), log.topk_us.end());
    staleness.insert(staleness.end(), log.staleness.begin(),
                     log.staleness.end());
  }
  std::vector<double> late_ms;
  for (const double s : r.late_s) late_ms.push_back(s * 1e3);
  report.Metric("serve.submit_us_p50", QuantileOrZero(r.submit_us, 0.5),
                "us", r.submit_us.size());
  report.Metric("serve.submit_us_p99", QuantileOrZero(r.submit_us, 0.99),
                "us", r.submit_us.size());
  report.Metric("serve.updates_per_publish",
                r.published > 0 ? static_cast<double>(total) /
                                      static_cast<double>(r.published)
                                : 0,
                "updates", r.published);
  report.Metric("serve.queue_depth_peak",
                static_cast<double>(r.queue_depth_peak), "updates",
                r.submit_us.size() / 64 + 1);
  report.Metric("serve.backpressure_refusals",
                static_cast<double>(r.refusals), "count", total);
  report.Metric("serve.snapshot_acquire_ns", QuantileOrZero(acquire_ns, 0.5),
                "ns", acquire_ns.size());
  report.Metric("serve.read_point_ns", QuantileOrZero(point_ns, 0.5), "ns",
                point_ns.size());
  report.Metric("serve.read_topk_us_p50", QuantileOrZero(topk_us, 0.5), "us",
                topk_us.size());
  report.Metric("serve.read_topk_us_p99", QuantileOrZero(topk_us, 0.99),
                "us", topk_us.size());
  report.Metric("serve.staleness_p99_updates",
                QuantileOrZero(staleness, 0.99), "updates",
                staleness.size());
  report.Metric("serve.visible_p50_ms", QuantileOrZero(visible_ms, 0.5),
                "ms", visible_ms.size());
  report.Metric("serve.visible_p99_ms", QuantileOrZero(visible_ms, 0.99),
                "ms", visible_ms.size());
  PrintTail(report, "serve.visible_ms", visible_ms, "ms");
  report.Metric("bench.generator_late_p99_ms", QuantileOrZero(late_ms, 0.99),
                "ms", late_ms.size());
  report.Info("serve.traced_update_throughput",
              static_cast<double>(in.burst) / r.burst_s, "updates/s",
              in.burst);
  std::filesystem::remove_all(dir);
  return r.burst_s;
}

/// The persistence layer on the stream's own records and the state the
/// replay left in `inc`.
void TracePersistence(const std::vector<StreamOp>& stream, std::size_t total,
                      const bitruss::IncrementalBitruss& inc,
                      RunContext& ctx) {
  Report& report = *ctx.report;
  SpanRecorder& spans = *ctx.spans;
  namespace persist = bitruss::persist;
  const std::string dir = ctx.work_dir + "/persist-layer";
  const std::uint32_t root = spans.Begin("persist", 0, 23);
  auto wal = persist::WalWriter::Open(
      dir, 1, {persist::FsyncPolicy::kOsBuffered, 4ull << 20});
  report.Check("WAL opens in a fresh directory", wal.ok());
  if (!wal.ok()) return;
  persist::WalWriter& writer = *wal.value();
  constexpr int kSyncs = 5;
  std::vector<double> sync_ms;
  double append_s = 0;
  std::uint64_t failures_wal = 0;
  for (int chunk = 0; chunk < kSyncs; ++chunk) {
    const std::size_t from = total * chunk / kSyncs;
    const std::size_t to = total * (chunk + 1) / kSyncs;
    const std::uint32_t span = spans.Begin("persist.wal_append", root, 23);
    for (std::size_t i = from; i < to; ++i) {
      const persist::WalRecord record{
          i + 1, static_cast<std::uint8_t>(stream[i].insert ? 0 : 1),
          stream[i].upper, stream[i].lower};
      const Clock::time_point t0 = Clock::now();
      if (!writer.Append(record).ok()) ++failures_wal;
      append_s += SecondsSince(t0);
    }
    spans.End(span);
    const std::uint32_t sync_span = spans.Begin("persist.wal_sync", root, 23);
    if (!writer.Sync().ok()) ++failures_wal;
    sync_ms.push_back(spans.End(sync_span) * 1e3);
  }
  report.Count("WAL appends and syncs succeed", total + kSyncs, failures_wal);
  report.Metric("persist.wal_append_us",
                append_s * 1e6 / static_cast<double>(total), "us", total);
  report.Metric("persist.wal_sync_ms", Median(sync_ms), "ms", sync_ms.size());
  report.Metric("persist.wal_bytes_per_update",
                static_cast<double>(writer.BytesAppended()) /
                    static_cast<double>(total),
                "bytes", total);
  wal.value().reset();

  const bitruss::DynamicGraphState graph_state = inc.Graph().ExportState();
  persist::StateSnapshot state;
  state.applied = total;
  state.num_upper = graph_state.num_upper;
  state.num_lower = graph_state.num_lower;
  state.num_butterflies = graph_state.num_butterflies;
  state.upper = graph_state.upper;
  state.lower = graph_state.lower;
  state.support = graph_state.support;
  state.phi = inc.PhiBySlot();
  state.free_slots = graph_state.free_slots;
  constexpr int kSnapshotRepeats = 3;
  std::vector<double> write_ms;
  std::vector<double> load_ms;
  bool snapshots_ok = true;
  for (int k = 0; k < kSnapshotRepeats; ++k) {
    std::uint32_t span = spans.Begin("persist.snapshot_write", root, 23);
    snapshots_ok = persist::WriteSnapshotFile(dir, state).ok() && snapshots_ok;
    write_ms.push_back(spans.End(span) * 1e3);
    span = spans.Begin("persist.snapshot_load", root, 23);
    const auto loaded = persist::LoadNewestSnapshot(dir);
    load_ms.push_back(spans.End(span) * 1e3);
    snapshots_ok = snapshots_ok && loaded.ok() &&
                   loaded.value().phi == state.phi &&
                   loaded.value().support == state.support;
  }
  report.Check("snapshot write + load round-trips the state", snapshots_ok);
  report.Metric("persist.snapshot_write_ms", Median(write_ms), "ms",
                write_ms.size());
  report.Metric("persist.snapshot_load_ms", Median(load_ms), "ms",
                load_ms.size());

  std::uint64_t replayed = 0;
  const std::uint32_t span = spans.Begin("persist.wal_replay", root, 23);
  const bitruss::Status replay_status = persist::ReplayWal(
      dir, 0, [&](const persist::WalRecord&) {
        ++replayed;
        return bitruss::OkStatus();
      });
  const double replay_s = spans.End(span);
  spans.End(root);
  report.Check("WAL replay returns every record",
               replay_status.ok() && replayed == total);
  report.Metric("persist.replay_records_per_s",
                static_cast<double>(replayed) / replay_s, "records/s",
                replayed);
  std::filesystem::remove_all(dir);
}

}  // namespace

double RunServeTraced(const BipartiteGraph& seed, const Inputs& in,
                      RunContext& ctx) {
  const std::vector<StreamOp>& stream = in.streams[0];
  const std::size_t total = in.burst + in.paced;
  TraceSupportUpdates(seed, stream, total, ctx);
  bitruss::IncrementalBitruss inc(seed);
  const double replay_burst_s = TraceReplay(stream, in.burst, total, inc, ctx);
  const double service_burst_s = TraceService(seed, in, ctx);
  TracePersistence(stream, total, inc, ctx);
  return replay_burst_s / service_burst_s;
}

}  // namespace perfbench
