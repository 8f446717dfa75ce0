// Tests for the binary wire format: exact round trips for every payload
// type, randomized fuzz round trips, and rejection of malformed input.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.h"

namespace vlease::net {
namespace {

/// Recompute the trailing CRC in place, so a test can mutate frame
/// bytes and still exercise the structural check BEHIND the checksum.
void reseal(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), 4u);
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc = wireChecksum(bytes.data(), body);
  for (int i = 0; i < 4; ++i)
    bytes[body + i] = static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff);
}

/// Append a valid CRC to a hand-crafted (checksum-less) frame body.
std::vector<std::uint8_t> sealed(std::vector<std::uint8_t> body) {
  const std::uint32_t crc = wireChecksum(body.data(), body.size());
  for (int i = 0; i < 4; ++i)
    body.push_back(static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff));
  return body;
}

Message roundTrip(const Message& msg) {
  auto bytes = encodeMessage(msg);
  auto decoded = decodeMessage(bytes.data(), bytes.size());
  EXPECT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->from, msg.from);
  EXPECT_EQ(decoded->to, msg.to);
  EXPECT_EQ(payloadTypeIndex(decoded->payload),
            payloadTypeIndex(msg.payload));
  return *decoded;
}

Message wrap(Payload payload) {
  return Message{makeNodeId(3), makeNodeId(1007), std::move(payload)};
}

TEST(WireTest, ReqObjLease) {
  auto m = roundTrip(wrap(ReqObjLease{makeObjectId(42), 17, true, 5}));
  const auto& p = std::get<ReqObjLease>(m.payload);
  EXPECT_EQ(raw(p.obj), 42u);
  EXPECT_EQ(p.haveVersion, 17);
  EXPECT_TRUE(p.wantVolume);
  EXPECT_EQ(p.haveEpoch, 5);
}

TEST(WireTest, ReqObjLeaseNegativeVersion) {
  auto m = roundTrip(wrap(ReqObjLease{makeObjectId(1), kNoVersion}));
  EXPECT_EQ(std::get<ReqObjLease>(m.payload).haveVersion, kNoVersion);
}

TEST(WireTest, ReqVolLease) {
  auto m = roundTrip(wrap(ReqVolLease{makeVolumeId(9), 4}));
  EXPECT_EQ(raw(std::get<ReqVolLease>(m.payload).vol), 9u);
  EXPECT_EQ(std::get<ReqVolLease>(m.payload).haveEpoch, 4);
}

TEST(WireTest, RenewObjLeasesWithEntries) {
  RenewObjLeases renew;
  renew.vol = makeVolumeId(2);
  renew.leases.push_back({makeObjectId(10), 1});
  renew.leases.push_back({makeObjectId(11), -1});
  auto m = roundTrip(wrap(renew));
  const auto& p = std::get<RenewObjLeases>(m.payload);
  ASSERT_EQ(p.leases.size(), 2u);
  EXPECT_EQ(raw(p.leases[1].obj), 11u);
  EXPECT_EQ(p.leases[1].version, -1);
}

TEST(WireTest, EmptyRenewList) {
  RenewObjLeases renew;
  renew.vol = makeVolumeId(0);
  auto m = roundTrip(wrap(renew));
  EXPECT_TRUE(std::get<RenewObjLeases>(m.payload).leases.empty());
}

TEST(WireTest, Acks) {
  roundTrip(wrap(AckInvalidate{makeObjectId(77)}));
  roundTrip(wrap(AckBatch{makeVolumeId(88)}));
}

TEST(WireTest, PollPair) {
  auto req = roundTrip(wrap(PollRequest{makeObjectId(5), 3}));
  EXPECT_EQ(std::get<PollRequest>(req.payload).haveVersion, 3);
  auto rep = roundTrip(wrap(PollReply{makeObjectId(5), 4, true, 9000}));
  EXPECT_TRUE(std::get<PollReply>(rep.payload).carriesData);
  EXPECT_EQ(std::get<PollReply>(rep.payload).dataBytes, 9000);
}

TEST(WireTest, ObjLeaseGrantAllFields) {
  ObjLeaseGrant grant{makeObjectId(6), 12, sec(100), true, 4096,
                      true, sec(50), 2};
  auto m = roundTrip(wrap(grant));
  const auto& p = std::get<ObjLeaseGrant>(m.payload);
  EXPECT_EQ(p.version, 12);
  EXPECT_EQ(p.expire, sec(100));
  EXPECT_TRUE(p.carriesData);
  EXPECT_EQ(p.dataBytes, 4096);
  EXPECT_TRUE(p.grantsVolume);
  EXPECT_EQ(p.volExpire, sec(50));
  EXPECT_EQ(p.epoch, 2);
}

TEST(WireTest, GrantWithNeverExpiry) {
  ObjLeaseGrant grant{makeObjectId(6), 1, kNever, false, 0};
  auto m = roundTrip(wrap(grant));
  EXPECT_EQ(std::get<ObjLeaseGrant>(m.payload).expire, kNever);
}

TEST(WireTest, VolLeaseGrant) {
  auto m = roundTrip(wrap(VolLeaseGrant{makeVolumeId(4), sec(77), 9}));
  EXPECT_EQ(std::get<VolLeaseGrant>(m.payload).epoch, 9);
}

TEST(WireTest, InvalidateAndMustRenewAll) {
  roundTrip(wrap(Invalidate{makeObjectId(123)}));
  roundTrip(wrap(MustRenewAll{makeVolumeId(321)}));
}

TEST(WireTest, BatchInvalRenew) {
  BatchInvalRenew batch;
  batch.vol = makeVolumeId(1);
  batch.invalidate = {makeObjectId(1), makeObjectId(2), makeObjectId(3)};
  batch.renew.push_back({makeObjectId(4), 7, sec(10)});
  auto m = roundTrip(wrap(batch));
  const auto& p = std::get<BatchInvalRenew>(m.payload);
  ASSERT_EQ(p.invalidate.size(), 3u);
  ASSERT_EQ(p.renew.size(), 1u);
  EXPECT_EQ(p.renew[0].version, 7);
  EXPECT_EQ(p.renew[0].expire, sec(10));
}

TEST(WireTest, RejectsTruncation) {
  auto bytes = encodeMessage(
      wrap(ObjLeaseGrant{makeObjectId(6), 12, sec(100), true, 4096}));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decodeMessage(bytes.data(), cut).has_value())
        << "cut at " << cut;
  }
}

TEST(WireTest, RejectsTrailingGarbage) {
  // Reseal after inserting the garbage byte: the frame must be rejected
  // by the leftover-bytes check, not merely the checksum.
  auto bytes = encodeMessage(wrap(Invalidate{makeObjectId(1)}));
  bytes.insert(bytes.end() - 4, 0xab);
  reseal(bytes);
  EXPECT_FALSE(decodeMessage(bytes.data(), bytes.size()).has_value());
}

TEST(WireTest, FrameIsLengthPrefixedMessage) {
  // encodeFrame() builds [u32 length][encodeMessage() bytes] in one
  // buffer; the prefix is little-endian like every other field.
  BatchInvalRenew batch;
  batch.vol = makeVolumeId(9);
  for (std::uint64_t i = 0; i < 100; ++i) {
    batch.invalidate.push_back(makeObjectId(i));
    batch.renew.push_back({makeObjectId(i + 1000), 3, sec(7)});
  }
  const Message msgs[] = {
      wrap(Invalidate{makeObjectId(1)}),
      wrap(ObjLeaseGrant{makeObjectId(6), 12, sec(100), true, 4096, true,
                         sec(30), 2}),
      wrap(std::move(batch)),
  };
  for (const Message& msg : msgs) {
    const auto body = encodeMessage(msg);
    std::vector<std::uint8_t> expected;
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i)
      expected.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xff));
    expected.insert(expected.end(), body.begin(), body.end());
    EXPECT_EQ(encodeFrame(msg), expected)
        << "payload " << payloadTypeIndex(msg.payload);
  }
}

TEST(WireTest, RejectsBadTypeByte) {
  auto bytes = encodeMessage(wrap(Invalidate{makeObjectId(1)}));
  bytes[8] = 0xff;  // type byte follows the two u32 node ids
  reseal(bytes);    // valid CRC: the type-byte check itself must fire
  EXPECT_FALSE(decodeMessage(bytes.data(), bytes.size()).has_value());
}

TEST(WireTest, RejectsOversizedListLength) {
  // Hand-craft a RenewObjLeases claiming 2^30 entries (valid CRC, so
  // the list-length bound itself does the rejecting).
  WireWriter w;
  w.u32(1);
  w.u32(0);
  w.u8(2);  // RenewObjLeases index
  w.u64(0);
  w.u32(1u << 30);
  auto bytes = sealed(w.take());
  EXPECT_FALSE(decodeMessage(bytes.data(), bytes.size()).has_value());
}

TEST(WireTest, RejectsMissingChecksum) {
  // A frame whose checksum was chopped off (body alone) must not parse,
  // even though the body bytes are exactly a valid pre-checksum frame.
  auto bytes = encodeMessage(wrap(Invalidate{makeObjectId(1)}));
  EXPECT_FALSE(decodeMessage(bytes.data(), bytes.size() - 4).has_value());
}

TEST(WireTest, ChecksumRejectsEveryBitFlip) {
  auto bytes = encodeMessage(
      wrap(ObjLeaseGrant{makeObjectId(6), 12, sec(100), true, 4096}));
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(decodeMessage(bytes.data(), bytes.size()).has_value())
          << "byte " << byte << " bit " << bit;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(WireTest, FuzzRoundTripRandomMessages) {
  Rng rng(424242);
  for (int i = 0; i < 2000; ++i) {
    Message msg;
    msg.from = makeNodeId(static_cast<std::uint32_t>(rng.next()));
    msg.to = makeNodeId(static_cast<std::uint32_t>(rng.next()));
    switch (rng.nextBelow(6)) {
      case 0:
        msg.payload = ReqObjLease{makeObjectId(rng.next()),
                                  static_cast<Version>(rng.next()),
                                  rng.nextBool(0.5),
                                  static_cast<Epoch>(rng.next())};
        break;
      case 1:
        msg.payload = ObjLeaseGrant{makeObjectId(rng.next()),
                                    static_cast<Version>(rng.next()),
                                    static_cast<SimTime>(rng.next()),
                                    rng.nextBool(0.5),
                                    static_cast<std::int64_t>(rng.next()),
                                    rng.nextBool(0.5),
                                    static_cast<SimTime>(rng.next()),
                                    static_cast<Epoch>(rng.next())};
        break;
      case 2: {
        BatchInvalRenew batch;
        batch.vol = makeVolumeId(rng.next());
        const auto nInval = rng.nextBelow(20);
        for (std::uint64_t k = 0; k < nInval; ++k)
          batch.invalidate.push_back(makeObjectId(rng.next()));
        const auto nRenew = rng.nextBelow(20);
        for (std::uint64_t k = 0; k < nRenew; ++k) {
          batch.renew.push_back({makeObjectId(rng.next()),
                                 static_cast<Version>(rng.next()),
                                 static_cast<SimTime>(rng.next())});
        }
        msg.payload = std::move(batch);
        break;
      }
      case 3: {
        RenewObjLeases renew;
        renew.vol = makeVolumeId(rng.next());
        const auto n = rng.nextBelow(30);
        for (std::uint64_t k = 0; k < n; ++k) {
          renew.leases.push_back(
              {makeObjectId(rng.next()), static_cast<Version>(rng.next())});
        }
        msg.payload = std::move(renew);
        break;
      }
      case 4:
        msg.payload = PollReply{makeObjectId(rng.next()),
                                static_cast<Version>(rng.next()),
                                rng.nextBool(0.5),
                                static_cast<std::int64_t>(rng.next())};
        break;
      default:
        msg.payload = VolLeaseGrant{makeVolumeId(rng.next()),
                                    static_cast<SimTime>(rng.next()),
                                    static_cast<Epoch>(rng.next())};
    }
    auto bytes = encodeMessage(msg);
    auto decoded = decodeMessage(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    // Re-encoding must be byte-identical (canonical form).
    EXPECT_EQ(encodeMessage(*decoded), bytes) << "iteration " << i;
  }
}

TEST(WireTest, FuzzDecodeRandomBytesNeverCrashes) {
  Rng rng(777);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> junk(rng.nextBelow(128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)decodeMessage(junk.data(), junk.size());  // must not crash/UB
  }
}

Message randomValidMessage(Rng& rng) {
  Message msg;
  msg.from = makeNodeId(static_cast<std::uint32_t>(rng.next()));
  msg.to = makeNodeId(static_cast<std::uint32_t>(rng.next()));
  switch (rng.nextBelow(5)) {
    case 0:
      msg.payload = Invalidate{makeObjectId(rng.next())};
      break;
    case 1:
      msg.payload = ObjLeaseGrant{makeObjectId(rng.next()),
                                  static_cast<Version>(rng.next()),
                                  static_cast<SimTime>(rng.next()),
                                  rng.nextBool(0.5),
                                  static_cast<std::int64_t>(rng.next()),
                                  rng.nextBool(0.5),
                                  static_cast<SimTime>(rng.next()),
                                  static_cast<Epoch>(rng.next())};
      break;
    case 2: {
      BatchInvalRenew batch;
      batch.vol = makeVolumeId(rng.next());
      const auto nInval = rng.nextBelow(8);
      for (std::uint64_t k = 0; k < nInval; ++k)
        batch.invalidate.push_back(makeObjectId(rng.next()));
      const auto nRenew = rng.nextBelow(8);
      for (std::uint64_t k = 0; k < nRenew; ++k) {
        batch.renew.push_back({makeObjectId(rng.next()),
                               static_cast<Version>(rng.next()),
                               static_cast<SimTime>(rng.next())});
      }
      msg.payload = std::move(batch);
      break;
    }
    case 3: {
      RenewObjLeases renew;
      renew.vol = makeVolumeId(rng.next());
      const auto n = rng.nextBelow(10);
      for (std::uint64_t k = 0; k < n; ++k) {
        renew.leases.push_back(
            {makeObjectId(rng.next()), static_cast<Version>(rng.next())});
      }
      msg.payload = std::move(renew);
      break;
    }
    default:
      msg.payload = VolLeaseGrant{makeVolumeId(rng.next()),
                                  static_cast<SimTime>(rng.next()),
                                  static_cast<Epoch>(rng.next())};
  }
  return msg;
}

TEST(WireTest, FuzzCorruptedFramesNeverMisparse) {
  // The hard frame-hardening guarantee: across >= 10^4 randomized
  // corruptions of valid frames -- bit flips, byte overwrites,
  // truncations, extensions, and slice swaps -- decode either rejects
  // the frame or the buffer was not actually changed. A corrupted frame
  // must NEVER come back as a different valid-looking message.
  Rng rng(20260807);
  int corruptions = 0;
  while (corruptions < 12000) {
    const Message msg = randomValidMessage(rng);
    const auto original = encodeMessage(msg);
    for (int variant = 0; variant < 8; ++variant, ++corruptions) {
      auto bytes = original;
      switch (rng.nextBelow(5)) {
        case 0: {  // single bit flip
          const auto pos = rng.nextBelow(bytes.size());
          bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.nextBelow(8));
          break;
        }
        case 1: {  // overwrite 1-4 random bytes
          const auto n = 1 + rng.nextBelow(4);
          for (std::uint64_t k = 0; k < n; ++k)
            bytes[rng.nextBelow(bytes.size())] =
                static_cast<std::uint8_t>(rng.next());
          break;
        }
        case 2:  // truncate
          bytes.resize(rng.nextBelow(bytes.size()));
          break;
        case 3: {  // extend with random bytes
          const auto n = 1 + rng.nextBelow(16);
          for (std::uint64_t k = 0; k < n; ++k)
            bytes.push_back(static_cast<std::uint8_t>(rng.next()));
          break;
        }
        default: {  // swap two bytes
          const auto a = rng.nextBelow(bytes.size());
          const auto b = rng.nextBelow(bytes.size());
          std::swap(bytes[a], bytes[b]);
          break;
        }
      }
      if (bytes == original) continue;  // corruption was a no-op
      auto decoded = decodeMessage(bytes.data(), bytes.size());
      EXPECT_FALSE(decoded.has_value())
          << "corruption " << corruptions << " misparsed";
    }
  }
  EXPECT_GE(corruptions, 10000);
}

}  // namespace
}  // namespace vlease::net
