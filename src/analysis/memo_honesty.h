// Pass 2 — memo-class honesty.
//
// A spec's CommutativityMemo declaration is a promise about what its
// answers depend on, and any cache of conflict decisions may rely on it
// exactly that far. A spec that lies — answers vary with parameters
// under kMethodPair, or with object state under kMethodPair/
// kInvocationPair — would poison every cached conflict decision. The
// validator caches nothing, so this pass is the only check of the
// declaration. It probes the spec with varied parameters (from the
// corpus) and, when the caller supplies state perturbations, with
// varied external state, and flags any answer that moves on an input
// the declared memo class says it cannot depend on.

#pragma once

#include <functional>
#include <vector>

#include "analysis/corpus.h"
#include "analysis/diagnostics.h"

namespace oodb::analysis {

struct HonestyOptions {
  /// Callbacks that mutate whatever external state the schema's specs
  /// could observe (test hooks; object-state snapshots in a full
  /// system). Between rounds the pass re-asks every pair; any change
  /// under a cacheable declaration is an error.
  std::vector<std::function<void()>> state_perturbations;
};

std::vector<Diagnostic> CheckMemoHonesty(const TypeCorpus& corpus,
                                         const HonestyOptions& options = {});

}  // namespace oodb::analysis
