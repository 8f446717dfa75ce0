#include "net/wire.h"

#include <array>

#include "util/check.h"

namespace vlease::net {

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::patchU32(std::size_t pos, std::uint32_t v) {
  VL_CHECK(pos + 4 <= bytes_.size());
  for (std::size_t i = 0; i < 4; ++i)
    bytes_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

bool WireReader::need(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint32_t WireReader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

namespace {

/// Lists are length-prefixed; cap entries so a hostile length prefix
/// cannot trigger a huge allocation before the bounds check trips.
constexpr std::uint32_t kMaxListEntries = 1u << 20;

struct EncodeVisitor {
  WireWriter& w;

  void operator()(const ReqObjLease& m) const {
    w.u64(raw(m.obj));
    w.i64(m.haveVersion);
    w.boolean(m.wantVolume);
    w.i64(m.haveEpoch);
  }
  void operator()(const ReqVolLease& m) const {
    w.u64(raw(m.vol));
    w.i64(m.haveEpoch);
  }
  void operator()(const RenewObjLeases& m) const {
    w.u64(raw(m.vol));
    w.u32(static_cast<std::uint32_t>(m.leases.size()));
    for (const auto& entry : m.leases) {
      w.u64(raw(entry.obj));
      w.i64(entry.version);
    }
  }
  void operator()(const AckInvalidate& m) const { w.u64(raw(m.obj)); }
  void operator()(const AckBatch& m) const { w.u64(raw(m.vol)); }
  void operator()(const PollRequest& m) const {
    w.u64(raw(m.obj));
    w.i64(m.haveVersion);
  }
  void operator()(const ObjLeaseGrant& m) const {
    w.u64(raw(m.obj));
    w.i64(m.version);
    w.i64(m.expire);
    w.boolean(m.carriesData);
    w.i64(m.dataBytes);
    w.boolean(m.grantsVolume);
    w.i64(m.volExpire);
    w.i64(m.epoch);
  }
  void operator()(const VolLeaseGrant& m) const {
    w.u64(raw(m.vol));
    w.i64(m.expire);
    w.i64(m.epoch);
  }
  void operator()(const Invalidate& m) const { w.u64(raw(m.obj)); }
  void operator()(const MustRenewAll& m) const { w.u64(raw(m.vol)); }
  void operator()(const BatchInvalRenew& m) const {
    w.u64(raw(m.vol));
    w.u32(static_cast<std::uint32_t>(m.invalidate.size()));
    for (ObjectId obj : m.invalidate) w.u64(raw(obj));
    w.u32(static_cast<std::uint32_t>(m.renew.size()));
    for (const auto& renewal : m.renew) {
      w.u64(raw(renewal.obj));
      w.i64(renewal.version);
      w.i64(renewal.expire);
    }
  }
  void operator()(const PollReply& m) const {
    w.u64(raw(m.obj));
    w.i64(m.version);
    w.boolean(m.carriesData);
    w.i64(m.dataBytes);
    w.i64(m.modifiedAt);
  }
};

template <std::size_t I>
Payload decodeAlternative(WireReader& r) {
  using T = std::variant_alternative_t<I, Payload>;
  if constexpr (std::is_same_v<T, ReqObjLease>) {
    ReqObjLease m{};
    m.obj = makeObjectId(r.u64());
    m.haveVersion = r.i64();
    m.wantVolume = r.boolean();
    m.haveEpoch = r.i64();
    return m;
  } else if constexpr (std::is_same_v<T, ReqVolLease>) {
    ReqVolLease m{};
    m.vol = makeVolumeId(r.u64());
    m.haveEpoch = r.i64();
    return m;
  } else if constexpr (std::is_same_v<T, RenewObjLeases>) {
    RenewObjLeases m{};
    m.vol = makeVolumeId(r.u64());
    std::uint32_t n = r.u32();
    if (n > kMaxListEntries) n = kMaxListEntries + 1;  // forces !ok below
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      RenewObjLeases::Entry entry{};
      entry.obj = makeObjectId(r.u64());
      entry.version = r.i64();
      if (r.ok()) m.leases.push_back(entry);
    }
    return m;
  } else if constexpr (std::is_same_v<T, AckInvalidate>) {
    return AckInvalidate{makeObjectId(r.u64())};
  } else if constexpr (std::is_same_v<T, AckBatch>) {
    return AckBatch{makeVolumeId(r.u64())};
  } else if constexpr (std::is_same_v<T, PollRequest>) {
    PollRequest m{};
    m.obj = makeObjectId(r.u64());
    m.haveVersion = r.i64();
    return m;
  } else if constexpr (std::is_same_v<T, ObjLeaseGrant>) {
    ObjLeaseGrant m{};
    m.obj = makeObjectId(r.u64());
    m.version = r.i64();
    m.expire = r.i64();
    m.carriesData = r.boolean();
    m.dataBytes = r.i64();
    m.grantsVolume = r.boolean();
    m.volExpire = r.i64();
    m.epoch = r.i64();
    return m;
  } else if constexpr (std::is_same_v<T, VolLeaseGrant>) {
    VolLeaseGrant m{};
    m.vol = makeVolumeId(r.u64());
    m.expire = r.i64();
    m.epoch = r.i64();
    return m;
  } else if constexpr (std::is_same_v<T, Invalidate>) {
    return Invalidate{makeObjectId(r.u64())};
  } else if constexpr (std::is_same_v<T, MustRenewAll>) {
    return MustRenewAll{makeVolumeId(r.u64())};
  } else if constexpr (std::is_same_v<T, BatchInvalRenew>) {
    BatchInvalRenew m{};
    m.vol = makeVolumeId(r.u64());
    std::uint32_t nInval = r.u32();
    if (nInval > kMaxListEntries) nInval = kMaxListEntries + 1;
    for (std::uint32_t i = 0; i < nInval && r.ok(); ++i) {
      ObjectId obj = makeObjectId(r.u64());
      if (r.ok()) m.invalidate.push_back(obj);
    }
    std::uint32_t nRenew = r.u32();
    if (nRenew > kMaxListEntries) nRenew = kMaxListEntries + 1;
    for (std::uint32_t i = 0; i < nRenew && r.ok(); ++i) {
      BatchInvalRenew::Renewal renewal{};
      renewal.obj = makeObjectId(r.u64());
      renewal.version = r.i64();
      renewal.expire = r.i64();
      if (r.ok()) m.renew.push_back(renewal);
    }
    return m;
  } else {
    static_assert(std::is_same_v<T, PollReply>);
    PollReply m{};
    m.obj = makeObjectId(r.u64());
    m.version = r.i64();
    m.carriesData = r.boolean();
    m.dataBytes = r.i64();
    m.modifiedAt = r.i64();
    return m;
  }
}

template <std::size_t... Is>
std::optional<Payload> decodePayloadImpl(std::size_t typeIndex, WireReader& r,
                                         std::index_sequence<Is...>) {
  std::optional<Payload> out;
  // Expand a dispatch over all alternatives; exactly one matches.
  (void)((Is == typeIndex ? (out = decodeAlternative<Is>(r), true) : false) ||
         ...);
  return out;
}

/// Frame layout constants: [u32 from][u32 to][u8 type] header and the
/// trailing [u32 crc32]; a stream frame puts a [u32 length] before them.
constexpr std::size_t kFrameHeaderBytes = 9;
constexpr std::size_t kFrameChecksumBytes = 4;
constexpr std::size_t kFramePrefixBytes = 4;
/// encodeFrame()'s up-front reservation, enough for a frame without
/// lists; a larger frame (a renewal batch) grows the buffer as it goes.
constexpr std::size_t kFrameReserveBytes = 96;

/// Append header, payload and the checksum over both to `w`.
void encodeInto(WireWriter& w, const Message& msg) {
  const std::size_t start = w.size();
  w.u32(raw(msg.from));
  w.u32(raw(msg.to));
  w.u8(static_cast<std::uint8_t>(payloadTypeIndex(msg.payload)));
  std::visit(EncodeVisitor{w}, msg.payload);
  w.u32(wireChecksum(w.bytes().data() + start, w.size() - start));
}

}  // namespace

std::uint32_t wireChecksum(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    crc = kTable[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> encodeMessage(const Message& msg) {
  WireWriter w;
  encodeInto(w, msg);
  return w.take();
}

std::vector<std::uint8_t> encodeFrame(const Message& msg) {
  WireWriter w(kFrameReserveBytes);
  w.u32(0);  // the length, patched once the body is written
  encodeInto(w, msg);
  w.patchU32(0, static_cast<std::uint32_t>(w.size() - kFramePrefixBytes));
  return w.take();
}

std::optional<Message> decodeMessage(const std::uint8_t* data,
                                     std::size_t size) {
  if (size < kFrameHeaderBytes + kFrameChecksumBytes) return std::nullopt;
  // Verify the trailing checksum before parsing anything: a corrupted
  // frame must never be misparsed into a valid-looking message.
  const std::size_t bodySize = size - kFrameChecksumBytes;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(data[bodySize + i]) << (8 * i);
  if (wireChecksum(data, bodySize) != stored) return std::nullopt;

  WireReader r(data, bodySize);
  Message msg{};
  msg.from = makeNodeId(r.u32());
  msg.to = makeNodeId(r.u32());
  const std::uint8_t typeIndex = r.u8();
  if (!r.ok() || typeIndex >= kNumPayloadTypes) return std::nullopt;
  auto payload = decodePayloadImpl(
      typeIndex, r, std::make_index_sequence<kNumPayloadTypes>{});
  if (!payload.has_value() || !r.ok() || r.remaining() != 0)
    return std::nullopt;
  msg.payload = std::move(*payload);
  return msg;
}

}  // namespace vlease::net
