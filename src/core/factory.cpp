#include "core/factory.h"

#include <memory>

#include "core/volume_client.h"
#include "core/volume_server.h"
#include "proto/lease.h"
#include "proto/poll.h"
#include "util/check.h"

namespace vlease::core {

using proto::Algorithm;
using proto::ProtocolConfig;
using proto::ProtocolContext;
using proto::ProtocolInstance;

ProtocolInstance makeProtocol(const ProtocolConfig& config,
                              ProtocolContext& ctx) {
  ProtocolInstance instance;
  // Poll Each Read is Poll with a zero window. The effective config
  // lives on the instance (shared, immutable): clients reference it
  // instead of each holding a copy.
  auto effectivePtr = std::make_shared<ProtocolConfig>(config);
  if (config.algorithm == Algorithm::kPollEachRead) {
    effectivePtr->objectTimeout = 0;
  }
  instance.sharedConfig = effectivePtr;
  const ProtocolConfig& effective = *instance.sharedConfig;

  const auto& catalog = ctx.catalog;
  instance.servers.reserve(catalog.numServers());
  instance.clients.reserve(catalog.numClients());

  for (std::uint32_t s = 0; s < catalog.numServers(); ++s) {
    const NodeId id = catalog.serverNode(s);
    switch (config.algorithm) {
      case Algorithm::kPollEachRead:
      case Algorithm::kPoll:
      case Algorithm::kPollAdaptive:
        instance.servers.push_back(
            std::make_unique<proto::PollServer>(ctx, id));
        break;
      case Algorithm::kCallback:
        instance.servers.push_back(std::make_unique<proto::LeaseServer>(
            ctx, id, effective, proto::LeaseMode::kCallback));
        break;
      case Algorithm::kLease:
        instance.servers.push_back(std::make_unique<proto::LeaseServer>(
            ctx, id, effective, proto::LeaseMode::kLease));
        break;
      case Algorithm::kBestEffortLease:
        instance.servers.push_back(std::make_unique<proto::LeaseServer>(
            ctx, id, effective, proto::LeaseMode::kBestEffort));
        break;
      case Algorithm::kVolumeLease:
        instance.servers.push_back(std::make_unique<VolumeServer>(
            ctx, id, effective, InvalidationMode::kImmediate));
        break;
      case Algorithm::kVolumeDelayedInval:
        instance.servers.push_back(std::make_unique<VolumeServer>(
            ctx, id, effective, InvalidationMode::kDelayed));
        break;
    }
  }

  for (std::uint32_t c = 0; c < catalog.numClients(); ++c) {
    const NodeId id = catalog.clientNode(c);
    switch (config.algorithm) {
      case Algorithm::kPollEachRead:
      case Algorithm::kPoll:
      case Algorithm::kPollAdaptive:
        instance.clients.push_back(
            std::make_unique<proto::PollClient>(ctx, id, effective));
        break;
      case Algorithm::kCallback:
        instance.clients.push_back(std::make_unique<proto::LeaseClient>(
            ctx, id, effective, proto::LeaseMode::kCallback));
        break;
      case Algorithm::kLease:
        instance.clients.push_back(std::make_unique<proto::LeaseClient>(
            ctx, id, effective, proto::LeaseMode::kLease));
        break;
      case Algorithm::kBestEffortLease:
        instance.clients.push_back(std::make_unique<proto::LeaseClient>(
            ctx, id, effective, proto::LeaseMode::kBestEffort));
        break;
      case Algorithm::kVolumeLease:
      case Algorithm::kVolumeDelayedInval:
        instance.clients.push_back(
            std::make_unique<VolumeClient>(ctx, id, effective));
        break;
    }
  }
  VL_CHECK(instance.servers.size() == catalog.numServers());
  VL_CHECK(instance.clients.size() == catalog.numClients());
  return instance;
}

}  // namespace vlease::core
