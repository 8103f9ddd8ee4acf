// Trace schema validation: the machine-checkable contract of the JSON
// lines trace export (docs/OBSERVABILITY.md).
//
// Checked per file:
//   * line 1 is a meta record with a version;
//   * every other line is a span or instant with its required fields;
//   * span ids are unique, start <= end, outcome is nonempty;
//   * every non-root span's parent exists, contains the child's
//     [start, end] window, belongs to the same top-level transaction,
//     and sits exactly one level above it — i.e. the flat file really
//     encodes the nested transaction tree.
//
// Each line is parsed with the shared util/json reader, so a line that
// is not one JSON object is itself a schema violation.

#pragma once

#include <string>

#include "util/status.h"

namespace oodb {

/// Validates a full JSON-lines trace document. Returns OK or an error
/// naming the first offending line.
Status ValidateTraceLines(const std::string& jsonl);

/// Validates a sampler time-series document (obs/sampler.h JSON lines):
/// one series-meta line first, known version, contiguous 1-based ticks,
/// well-formed samples, histogram bucket indexes inside the shared
/// hist_layout, and each histogram's count equal to the sum of its
/// bucket deltas (every observation lands in exactly one bucket).
Status ValidateSeriesLines(const std::string& jsonl);

}  // namespace oodb
