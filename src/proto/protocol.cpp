#include "proto/protocol.h"

#include <utility>

namespace vlease::proto {

const char* algorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kPollEachRead:
      return "PollEachRead";
    case Algorithm::kPoll:
      return "Poll";
    case Algorithm::kPollAdaptive:
      return "PollAdaptive";
    case Algorithm::kCallback:
      return "Callback";
    case Algorithm::kLease:
      return "Lease";
    case Algorithm::kBestEffortLease:
      return "BestEffortLease";
    case Algorithm::kVolumeLease:
      return "VolumeLease";
    case Algorithm::kVolumeDelayedInval:
      return "VolumeDelayedInval";
  }
  return "?";
}

std::optional<Algorithm> algorithmByName(const std::string& name) {
  static const std::pair<const char*, Algorithm> kNames[] = {
      {"poll-each-read", Algorithm::kPollEachRead},
      {"per", Algorithm::kPollEachRead},
      {"poll", Algorithm::kPoll},
      {"poll-adaptive", Algorithm::kPollAdaptive},
      {"adaptive", Algorithm::kPollAdaptive},
      {"callback", Algorithm::kCallback},
      {"lease", Algorithm::kLease},
      {"best-effort", Algorithm::kBestEffortLease},
      {"besteffort", Algorithm::kBestEffortLease},
      {"volume", Algorithm::kVolumeLease},
      {"delay", Algorithm::kVolumeDelayedInval},
      {"delayed", Algorithm::kVolumeDelayedInval},
      {"volume-delay", Algorithm::kVolumeDelayedInval},
  };
  for (const auto& [known, algorithm] : kNames) {
    if (name == known) return algorithm;
  }
  return std::nullopt;
}

}  // namespace vlease::proto
