// Plain-text serialization of the release API values, so a whole
// release is reproducible from a spec file and its estimation summary
// can be archived next to the published CSVs.
//
// ReleaseSpec (line-oriented `key value...`, versioned header
// `mdrr-release-spec v1`, `#` comments allowed): every field is printed
// except optional sections at their defaults; parsing accepts any subset
// (missing keys keep their defaults) and rejects unknown keys, repeated
// keys (`adjustment.group` excepted: one line per group), malformed
// values and integers outside their field's type, so
// ParseReleaseSpec(PrintReleaseSpec(spec)) == spec for every spec.
//
// ReleaseArtifacts (`mdrr-release-artifacts v1`): the estimation summary
// only -- marginals, clustering, dependences, epsilons, adjustment
// weights, utility scalars, timings. The randomized/synthetic datasets
// are NOT embedded; they go to the CSV side files named by the spec's
// OutputSpec. The summary is write-only: no parser reads it back, but
// every double prints at full precision, so any reader gets it
// bit-exact.

#ifndef MDRR_RELEASE_SERIALIZATION_H_
#define MDRR_RELEASE_SERIALIZATION_H_

#include <string>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/release/artifacts.h"
#include "mdrr/release/spec.h"
#include "mdrr/release/streaming.h"

namespace mdrr::release {

std::string PrintReleaseSpec(const ReleaseSpec& spec);
StatusOr<ReleaseSpec> ParseReleaseSpec(const std::string& text);
StatusOr<ReleaseSpec> ReadReleaseSpec(const std::string& path);

std::string PrintReleaseArtifacts(const ReleaseArtifacts& artifacts);
Status WriteReleaseArtifacts(const ReleaseArtifacts& artifacts,
                             const std::string& path);

// StreamingSnapshot (`mdrr-streaming-snapshot v1`): the resumable
// collector state -- sequence and window cursors, the per-window
// epsilon ledger, and the pending bucket counts. Print/Parse round-trips
// it exactly (counts are integers, doubles print at full precision).
std::string PrintStreamingSnapshot(const StreamingSnapshot& snapshot);
StatusOr<StreamingSnapshot> ParseStreamingSnapshot(const std::string& text);
Status WriteStreamingSnapshot(const StreamingSnapshot& snapshot,
                              const std::string& path);
StatusOr<StreamingSnapshot> ReadStreamingSnapshot(const std::string& path);

// Deterministic text transcript of a window sequence: one `window` line
// per emitted window (index, range, reports, released flag, epsilon)
// followed by the released windows' artifact summaries. Two streaming
// runs are bit-identical iff their transcripts match -- the replay
// equality observable used by tests, the bench stage, and mdrr_collectd.
std::string PrintStreamWindows(const std::vector<StreamWindow>& windows);

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_SERIALIZATION_H_
