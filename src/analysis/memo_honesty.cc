#include "analysis/memo_honesty.h"

#include <map>
#include <string>
#include <utility>

namespace oodb::analysis {

namespace {

std::vector<bool> ProbeAll(const CommutativitySpec& spec,
                           const std::vector<Invocation>& invs) {
  std::vector<bool> answers;
  answers.reserve(invs.size() * invs.size());
  for (const Invocation& a : invs) {
    for (const Invocation& b : invs) {
      answers.push_back(spec.Commutes(a, b));
    }
  }
  return answers;
}

}  // namespace

std::vector<Diagnostic> CheckMemoHonesty(const TypeCorpus& corpus,
                                         const HonestyOptions& options) {
  std::vector<Diagnostic> out;
  const ObjectType* type = corpus.type;
  const CommutativitySpec& spec = type->commutativity();
  const CommutativityMemo memo = spec.memo();
  const std::vector<Invocation> invs = corpus.Invocations();

  if (memo == CommutativityMemo::kNone) {
    out.push_back({Severity::kNote, "memo-honesty", type->name(), "", "",
                   "declares kNone (state-dependent): every Def 9 query "
                   "reaches the spec; no answer for this type may be "
                   "cached"});
    return out;
  }

  // kMethodPair: one answer per method-name pair, whatever the
  // parameters. Probe all invocation combinations of each pair.
  if (memo == CommutativityMemo::kMethodPair) {
    std::map<std::pair<std::string, std::string>,
             std::pair<Invocation, Invocation>>
        reference;
    std::map<std::pair<std::string, std::string>, bool> answer;
    for (const Invocation& a : invs) {
      for (const Invocation& b : invs) {
        auto key = a.method <= b.method
                       ? std::make_pair(a.method, b.method)
                       : std::make_pair(b.method, a.method);
        const bool ans = spec.Commutes(a, b);
        auto [it, fresh] = answer.emplace(key, ans);
        if (fresh) {
          reference.emplace(key, std::make_pair(a, b));
        } else if (it->second != ans) {
          const auto& ref = reference.at(key);
          out.push_back(
              {Severity::kError, "memo-honesty", type->name(), key.first,
               key.second,
               "declares kMethodPair but the answer depends on "
               "parameters: Commutes(" + ref.first.ToString() + ", " +
                   ref.second.ToString() + ") = " +
                   (it->second ? "true" : "false") + " while Commutes(" +
                   a.ToString() + ", " + b.ToString() + ") = " +
                   (ans ? "true" : "false") +
                   " — a method-pair memo would serve the wrong answer"});
          it->second = ans;  // keep scanning; report each flip once
        }
      }
    }
  }

  // kMethodPair and kInvocationPair both promise state-independence:
  // the same invocation pair must answer identically across repeated
  // probes and across every caller-supplied state perturbation.
  const std::vector<bool> baseline = ProbeAll(spec, invs);
  const size_t rounds =
      options.state_perturbations.empty() ? 1
                                          : options.state_perturbations.size();
  for (size_t round = 0; round < rounds; ++round) {
    if (!options.state_perturbations.empty()) {
      options.state_perturbations[round]();
    }
    const std::vector<bool> probe = ProbeAll(spec, invs);
    for (size_t i = 0; i < invs.size(); ++i) {
      for (size_t j = 0; j < invs.size(); ++j) {
        const size_t k = i * invs.size() + j;
        if (probe[k] == baseline[k]) continue;
        out.push_back(
            {Severity::kError, "memo-honesty", type->name(),
             invs[i].method, invs[j].method,
             std::string("declares ") +
                 (memo == CommutativityMemo::kMethodPair
                      ? "kMethodPair"
                      : "kInvocationPair") +
                 " but Commutes(" + invs[i].ToString() + ", " +
                 invs[j].ToString() + ") changed from " +
                 (baseline[k] ? "true" : "false") + " to " +
                 (probe[k] ? "true" : "false") +
                 (options.state_perturbations.empty()
                      ? " between identical probes"
                      : " after a state perturbation") +
                 " — a cached answer would be stale; declare kNone"});
        return out;  // one witness is enough; state leaks repeat widely
      }
    }
  }
  return out;
}

}  // namespace oodb::analysis
