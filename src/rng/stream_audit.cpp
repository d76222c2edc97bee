#include "rng/stream_audit.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "base/sync.hpp"
#include "base/thread_annotations.hpp"
#include "rng/random.hpp"

namespace sfs::rng {

struct StreamAudit::Impl {
  std::atomic<bool> enabled{false};
  mutable base::Mutex mutex;
  // derived seed -> the triple that produced it. One entry per distinct
  // derivation; collisions are detected at insertion. Harness workers
  // record concurrently — the capability annotation makes "only under
  // mutex" a compile-time property of every access below.
  std::unordered_map<std::uint64_t, StreamTriple> derivations
      SFS_GUARDED_BY(mutex);
};

namespace {

bool env_audit_enabled() {
  const char* v = std::getenv("SFS_RNG_AUDIT");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

StreamAudit::StreamAudit() : impl_(new Impl) {
  impl_->enabled.store(env_audit_enabled(), std::memory_order_relaxed);
}

StreamAudit::~StreamAudit() { delete impl_; }

StreamAudit& StreamAudit::instance() {
  static StreamAudit audit;
  return audit;
}

bool StreamAudit::enabled() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void StreamAudit::set_enabled(bool on) noexcept {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

void StreamAudit::reset() {
  const base::MutexLock lock(impl_->mutex);
  impl_->derivations.clear();
}

void StreamAudit::record(const StreamTriple& triple, std::uint64_t derived) {
  const base::MutexLock lock(impl_->mutex);
  const auto [it, inserted] = impl_->derivations.emplace(derived, triple);
  if (inserted || it->second == triple) return;
  std::ostringstream os;
  os << "RNG stream collision: derived seed " << derived
     << " produced by both (seed=" << it->second.seed
     << ", stream=" << it->second.stream << ", rep=" << it->second.rep
     << ") and (seed=" << triple.seed << ", stream=" << triple.stream
     << ", rep=" << triple.rep << ")";
  // SFS_LINT_ALLOW(check-discipline): the collision report interpolates both colliding triples; SFS_CHECK's expression text would be a meaningless "false"
  throw std::logic_error(os.str());
}

std::size_t StreamAudit::recorded_count() const {
  const base::MutexLock lock(impl_->mutex);
  return impl_->derivations.size();
}

void StreamAudit::dump(std::ostream& out) const {
  std::vector<std::pair<std::uint64_t, StreamTriple>> rows;
  {
    const base::MutexLock lock(impl_->mutex);
    rows.assign(impl_->derivations.begin(), impl_->derivations.end());
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Plain CSV by hand: every field is numeric, and rng/ stays below sim/
  // in the layering (sim/csv depends on nothing, but the dependency arrow
  // between layers should still point one way).
  out << "seed,stream,rep,derived_seed\n";
  for (const auto& [derived, t] : rows) {
    out << t.seed << ',' << t.stream << ',' << t.rep << ',' << derived
        << '\n';
  }
}

std::uint64_t audited_stream_seed(std::uint64_t experiment_seed,
                                  std::uint64_t stream, std::uint64_t rep) {
  const std::uint64_t derived =
      derive_stream_seed(experiment_seed, stream, rep);
  StreamAudit& audit = StreamAudit::instance();
  if (audit.enabled()) {
    audit.record(StreamTriple{experiment_seed, stream, rep}, derived);
  }
  return derived;
}

}  // namespace sfs::rng
