#include "core/peeling_state.h"

#include <algorithm>

#include "obs/metrics.h"

namespace bitruss {

namespace {
constexpr std::uint32_t kDeadlinePollInterval = 1024;

// One "round" = one assignment step of the peel loop: a successful pop in
// kSingle mode, a drained support level in the batch modes.  Accumulated
// locally and flushed once per Run so the hot loop touches no atomics.
obs::Counter* PeelRoundsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter(
          "bitruss_core_peel_rounds_total");
  return counter;
}
}  // namespace

Peeler::Peeler(BEIndex index, std::vector<SupportT> support,
               PeelerOptions options, PeelCounters* counters)
    : index_(std::move(index)),
      support_(std::move(support)),
      options_(std::move(options)),
      counters_(counters) {
  const EdgeId m = index_.num_edges;
  removed_.assign(m, 0);
  if (options_.track_per_edge_updates &&
      counters_->per_edge_updates.size() < m) {
    counters_->per_edge_updates.assign(m, 0);
  }
  SupportT max_sup = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (!IsFrozen(e)) max_sup = std::max(max_sup, support_[e]);
  }
  buckets_.assign(static_cast<std::size_t>(max_sup) + 1, {});
  for (EdgeId e = 0; e < m; ++e) {
    if (!IsFrozen(e)) buckets_[support_[e]].push_back(e);
  }
}

void Peeler::ApplyUpdate(EdgeId e, SupportT delta) {
  if (removed_[e] || IsFrozen(e)) return;
  ++counters_->support_updates;
  if (options_.track_per_edge_updates) ++counters_->per_edge_updates[e];
  const SupportT old = support_[e];
  const SupportT now = old > delta ? old - delta : 0;
  if (now == old) return;
  support_[e] = now;
  buckets_[now].push_back(e);
  cursor_ = std::min(cursor_, now);
}

void Peeler::RemoveEdgeWedges(EdgeId e) {
  for (std::uint64_t i = index_.edge_offsets[e]; i < index_.edge_offsets[e + 1];
       ++i) {
    const WedgeId w = index_.edge_wedges[i];
    if (!index_.wedge_alive[w]) continue;
    const BloomId b = index_.wedge_bloom[w];
    const SupportT kb = index_.BloomK(b);
    ApplyUpdate(index_.Twin(w, e), kb - 1);
    const std::uint64_t begin = index_.bloom_offsets[b];
    const std::uint64_t end = begin + index_.bloom_live[b];
    for (std::uint64_t slot = begin; slot < end; ++slot) {
      const WedgeId other = index_.bloom_slots[slot];
      if (other == w) continue;
      ApplyUpdate(index_.wedge_e1[other], 1);
      ApplyUpdate(index_.wedge_e2[other], 1);
    }
    index_.KillWedge(w);
  }
}

void Peeler::ProcessBatchBlooms(const std::vector<EdgeId>& batch) {
  if (wedge_dying_.empty()) {
    wedge_dying_.assign(index_.wedge_e1.size(), 0);
    bloom_dying_.resize(index_.NumBlooms());
  }
  // Collect the batch's dead wedges grouped by bloom (a wedge with both
  // edges in the batch is collected once).
  for (const EdgeId e : batch) {
    for (std::uint64_t i = index_.edge_offsets[e];
         i < index_.edge_offsets[e + 1]; ++i) {
      const WedgeId w = index_.edge_wedges[i];
      if (!index_.wedge_alive[w] || wedge_dying_[w]) continue;
      wedge_dying_[w] = 1;
      const BloomId b = index_.wedge_bloom[w];
      if (bloom_dying_[b].empty()) dirty_blooms_.push_back(b);
      bloom_dying_[b].push_back(w);
    }
  }
  for (const BloomId b : dirty_blooms_) {
    std::vector<WedgeId>& dying = bloom_dying_[b];
    const SupportT kb = index_.BloomK(b);
    const SupportT t = static_cast<SupportT>(dying.size());
    // Surviving twin of each dead wedge loses every butterfly it formed in
    // this bloom: one bulk update of k(B) - 1.
    for (const WedgeId w : dying) {
      const EdgeId e1 = index_.wedge_e1[w];
      const EdgeId e2 = index_.wedge_e2[w];
      if (!removed_[e1]) ApplyUpdate(e1, kb - 1);
      if (!removed_[e2]) ApplyUpdate(e2, kb - 1);
      index_.KillWedge(w);
      wedge_dying_[w] = 0;
    }
    // Each surviving wedge pairs with each of the t dead wedges: one -t
    // update per endpoint.
    const std::uint64_t begin = index_.bloom_offsets[b];
    const std::uint64_t end = begin + index_.bloom_live[b];
    for (std::uint64_t slot = begin; slot < end; ++slot) {
      const WedgeId other = index_.bloom_slots[slot];
      ApplyUpdate(index_.wedge_e1[other], t);
      ApplyUpdate(index_.wedge_e2[other], t);
    }
    dying.clear();
  }
  dirty_blooms_.clear();
}

bool Peeler::EvictBelowFloor(const Deadline& deadline, EdgeId* remaining) {
  std::vector<EdgeId> wave;
  while (true) {
    if (deadline.Expired()) return false;
    wave.clear();
    const SupportT end = static_cast<SupportT>(
        std::min<std::size_t>(options_.floor, buckets_.size()));
    for (; cursor_ < end; ++cursor_) {
      for (const EdgeId e : buckets_[cursor_]) {
        if (removed_[e] || support_[e] != cursor_) continue;  // stale entry
        removed_[e] = 1;
        wave.push_back(e);
      }
      buckets_[cursor_].clear();
    }
    if (wave.empty()) return true;
    *remaining -= static_cast<EdgeId>(wave.size());
    ProcessBatchBlooms(wave);  // lowers cursor_ to the next wave's edges
  }
}

bool Peeler::Run(Mode mode, const Deadline& deadline,
                 const std::function<void(EdgeId, SupportT)>& on_assign) {
  const EdgeId m = index_.num_edges;
  EdgeId remaining = 0;
  for (EdgeId e = 0; e < m; ++e) remaining += !IsFrozen(e);
  if (options_.floor > 0 && !EvictBelowFloor(deadline, &remaining)) {
    return false;
  }

  SupportT level = 0;
  std::uint32_t since_poll = 0;
  std::uint64_t rounds = 0;
  std::vector<EdgeId> batch;

  while (remaining > 0) {
    while (cursor_ < buckets_.size() && buckets_[cursor_].empty()) ++cursor_;
    if (cursor_ >= buckets_.size()) break;  // defensive; cannot occur
    if (++since_poll >= kDeadlinePollInterval) {
      since_poll = 0;
      if (deadline.Expired()) {
        if (rounds > 0) PeelRoundsCounter()->Inc(rounds);
        return false;
      }
    }

    if (mode == Mode::kSingle) {
      std::vector<EdgeId>& bucket = buckets_[cursor_];
      const EdgeId e = bucket.back();
      bucket.pop_back();
      if (removed_[e] || support_[e] != cursor_) continue;  // stale entry
      ++rounds;
      level = std::max(level, cursor_);
      removed_[e] = 1;
      --remaining;
      on_assign(e, level);
      RemoveEdgeWedges(e);
      continue;
    }

    // Batch modes: drain every valid edge at the current level first, so
    // all of them are marked removed before any update is applied.
    batch.clear();
    {
      std::vector<EdgeId>& bucket = buckets_[cursor_];
      while (!bucket.empty()) {
        const EdgeId e = bucket.back();
        bucket.pop_back();
        if (removed_[e] || support_[e] != cursor_) continue;
        removed_[e] = 1;
        batch.push_back(e);
      }
    }
    if (batch.empty()) continue;
    ++rounds;
    level = std::max(level, cursor_);
    remaining -= static_cast<EdgeId>(batch.size());
    for (const EdgeId e : batch) on_assign(e, level);
    if (mode == Mode::kBatchEdges) {
      for (const EdgeId e : batch) RemoveEdgeWedges(e);
    } else {
      ProcessBatchBlooms(batch);
    }
    // One outer iteration consumed a whole support level here; advance the
    // poll counter by the real work done so the deadline stays responsive
    // even when the peel spans few levels.
    since_poll += static_cast<std::uint32_t>(
        std::min<std::size_t>(batch.size(), kDeadlinePollInterval));
  }
  if (rounds > 0) PeelRoundsCounter()->Inc(rounds);
  return true;
}

}  // namespace bitruss
