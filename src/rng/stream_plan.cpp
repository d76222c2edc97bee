#include "rng/stream_plan.hpp"

#include "base/check.hpp"
#include "rng/philox.hpp"
#include "rng/stream_audit.hpp"

namespace sfs::rng {

std::uint64_t StreamPlan::stream_seed(std::uint64_t index) const {
  switch (version_) {
    case StreamPlanVersion::kLegacy:
      // audited_stream_seed == derive_stream_seed + audit record; the
      // legacy tempering discipline (stream 0 untempered, callers temper
      // their tags through mix64) is the caller's contract, not ours.
      return audited_stream_seed(seed_, stream_, index);
    case StreamPlanVersion::kCounter: {
      const Philox4x64 cipher(seed_, stream_);
      const std::uint64_t derived = cipher.block_at(index)[0];
      StreamAudit& audit = StreamAudit::instance();
      if (audit.enabled()) {
        audit.record(StreamTriple{seed_, stream_, index}, derived);
      }
      return derived;
    }
  }
  SFS_CHECK(false, "StreamPlan: unknown version");
  return 0;
}

}  // namespace sfs::rng
