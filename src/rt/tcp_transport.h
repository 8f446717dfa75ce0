// TCP binding of net::Transport: the same client/server state machines
// that run under the simulator exchange real length-prefixed frames over
// real sockets.
//
// Deployment model: one TcpTransport per process/event-loop, hosting the
// local node(s). Remote nodes are registered with addPeer(); outbound
// connections are opened lazily on first send and kept alive. Inbound
// connections are accepted on the listen port; frames carry the sender
// and recipient node ids, so one socket can serve any node pair.
//
// Framing: [u32 length][encodeMessage() bytes, CRC-sealed]. Reads are
// level-triggered through the driver's event loop and drained until
// EAGAIN into a per-connection accumulator; every complete frame in the
// accumulator is parsed per wakeup (batched multi-frame parse). A frame
// that fails decodeMessage() (truncated or corrupted beyond its
// checksum) is dropped and counted in framesRejected(), never delivered;
// a connection that dies mid-frame (EOF or hard error with a partial
// frame buffered) counts the abandoned prefix as a rejected frame too.
//
// Writes have one path. send() connects if needed and appends the frame
// to the connection's pending queue; the driver's before-wait hook
// gathers every queued frame into one writev per connection (syscall
// coalescing). Replies that the protocol handlers generate in a
// dispatch batch leave in that same step; frames sent between two steps
// (an application thread that reads, then steps the loop, or setup code
// before the first step) leave in the next step's first flush. A short
// write arms EPOLLOUT and the remainder flushes when the socket drains.
// No frame is on the wire when send() returns, and none needs to be:
// Transport is best effort. The destructor gives frames still queued
// one bounded drain (up to Options::writeStallTimeoutMs on a peer that
// does not read); frames still queued after that are dropped with a
// logged warning.
//
// A transport is not thread-safe: one thread at a time calls it, the
// same one that steps its driver (see real_time.h). framesSent() counts
// a frame when its last byte enters the socket, so a send shows there
// only after the flush that wrote it.
//
// Failures. A connect that fails, a connection found dead at a flush,
// and a backlog past kMaxPendingWriteBytes (the peer stopped reading:
// the connection is aborted and its queued frames charged as failures)
// all reach one routine, retryFrames(): it reconnects under capped
// jittered exponential backoff and resends, up to Options::maxRetries
// attempts; frames still undeliverable count as failures. The protocols
// already tolerate loss (leases expire, reads time out, the
// reconnection path repairs state). Backoff sleeps use
// clock_nanosleep(TIMER_ABSTIME), so an injected signal re-enters the
// sleep instead of silently shortening it.
//
// Exactly-once per frame: an aborted connection is always closed before
// the retry, so the peer discards any half-received prefix with it, and
// the partially-written head frame is salvaged whole and resent whole
// on a fresh connection -- transmission restarts from the frame
// boundary, and no interleaving can make the peer parse a frame twice.
//
// Chaos shim: setFaultHook() interposes a FaultHook on the socket path.
// The hook can drop an outbound frame, truncate it mid-write at an
// injected byte offset (optionally half-closing so the peer reads the
// prefix then EOF), or drop an inbound frame after decode -- this is how
// tools/vlease_rt executes FaultPlan partition/isolate/loss windows
// against live deployments. Injected faults are counted separately from
// organic failures and are never retried (an injected drop IS the loss).
// An injected truncation first flushes the queued backlog once,
// nonblocking, so the truncated prefix lands at a frame boundary on the
// wire; a backlog that does not drain dies with the connection instead.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "rt/real_time.h"
#include "stats/metrics.h"

namespace vlease::rt {

/// What a FaultHook tells the transport to do with one outbound frame.
struct SendFault {
  enum class Kind : std::uint8_t {
    kDeliver,   // send normally
    kDrop,      // do not send at all
    kTruncate,  // write `truncateAt` bytes, then kill the connection
  };
  Kind kind = Kind::kDeliver;
  /// For kTruncate: bytes of the frame to emit before dying. Clamped to
  /// the frame size; a value >= frame size degrades to a full write
  /// followed by a connection kill (the peer still gets the frame).
  std::size_t truncateAt = 0;
  /// For kTruncate: shutdown(SHUT_WR) first so the peer reads the
  /// prefix then a clean EOF (vs. an abortive close).
  bool halfClose = false;
};

/// Socket-level fault shim (see header comment). Implementations must
/// be cheap; called on the loop thread for every remote frame.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  /// Decide the fate of an outbound frame of `frameBytes` total bytes.
  virtual SendFault onSend(NodeId from, NodeId to, std::size_t frameBytes) = 0;
  /// Drop a decoded inbound frame before delivery (models frames that
  /// were already in flight when a partition window opened).
  virtual bool dropInbound(NodeId from, NodeId to) = 0;
};

class TcpTransport final : public net::Transport {
 public:
  /// Socket-path policy.
  struct Options {
    /// Deadline for establishing an outbound connection.
    int connectTimeoutMs = 1000;
    /// Retry attempt k sleeps min(cap, 2 ms << (k-1)) * jitter, jitter
    /// uniform in [0.5, 1.5).
    int retryBackoffCapMs = 64;
    /// Reconnect-and-resend attempts after a failed send.
    int maxRetries = 1;
    /// The destructor's bounded drain of frames still queued.
    int writeStallTimeoutMs = 1000;
    /// Seed for the backoff jitter stream (deterministic per transport).
    std::uint64_t jitterSeed = 0x9e3779b97f4a7c15ull;
  };

  /// Listens on 127.0.0.1:`port` (port 0 picks a free port; see
  /// listenPort()). Registers with the driver's event loop.
  TcpTransport(RealTimeDriver& driver, stats::Metrics& metrics,
               std::uint16_t port);
  TcpTransport(RealTimeDriver& driver, stats::Metrics& metrics,
               std::uint16_t port, const Options& options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::uint16_t listenPort() const { return listenPort_; }
  const Options& options() const { return options_; }

  /// Declare where a remote node lives.
  void addPeer(NodeId node, const std::string& host, std::uint16_t port);

  /// Install / clear the chaos shim (nullptr = none). Not owned.
  void setFaultHook(FaultHook* hook) { faultHook_ = hook; }

  // net::Transport
  void attach(NodeId node, net::MessageSink* sink) override;
  void detach(NodeId node) override;
  void send(net::Message msg) override;

  std::int64_t framesSent() const { return framesSent_; }
  std::int64_t framesReceived() const { return framesReceived_; }
  std::int64_t sendFailures() const { return sendFailures_; }
  /// Reconnect-and-resend attempts (successful or not; failures also
  /// bump sendFailures()). One attempt may carry a batch of salvaged
  /// frames; it still counts once.
  std::int64_t sendRetries() const { return sendRetries_; }
  /// Inbound frames dropped because they failed to decode (corrupt
  /// length prefix, checksum/parse failure, or a connection that died
  /// leaving a partial frame). Never delivered.
  std::int64_t framesRejected() const { return framesRejected_; }
  /// Write attempts abandoned after some -- but not all -- of a frame's
  /// bytes entered the socket; the connection is closed so the prefix
  /// can never complete into a deliverable frame on the peer.
  std::int64_t partialFrameAborts() const { return partialFrameAborts_; }
  /// Successful connects to a peer that had connected before (i.e. the
  /// previous connection died and was reopened).
  std::int64_t reconnects() const { return reconnects_; }
  /// Connect attempts refused outright (RST on SYN) -- the flash-crowd
  /// signature of a peer whose accept backlog overflowed (or that is
  /// not up yet). These heal through the normal bounded retry.
  std::int64_t connectRefusals() const { return connectRefusals_; }
  /// Frames suppressed by the fault hook (outbound + inbound drops).
  std::int64_t injectedDrops() const { return injectedDrops_; }
  /// Frames killed mid-write by the fault hook.
  std::int64_t injectedTruncations() const { return injectedTruncations_; }

 private:
  struct Peer {
    std::string host;
    std::uint16_t port = 0;
    int fd = -1;
    bool everConnected = false;
  };
  struct Connection {
    int fd = -1;
    /// Inbound reassembly: bytes [head, buffer.size()) are unparsed.
    /// `head` defers the erase-from-front compaction until the parsed
    /// prefix is worth reclaiming.
    std::vector<std::uint8_t> buffer;
    std::size_t head = 0;
    /// Outbound coalescing: whole frames awaiting the gathered writev;
    /// pendingHead = bytes of pending.front() already on the wire.
    std::deque<std::vector<std::uint8_t>> pending;
    std::size_t pendingHead = 0;
    std::size_t pendingBytes = 0;
    bool outbound = false;
    NodeId peerNode{};        // valid when outbound
    bool writeArmed = false;  // EPOLLOUT interest currently registered
    bool dirty = false;       // queued for the next before-wait flush
  };
  enum class FlushResult { kDrained, kBlocked, kDead };

  void acceptReady();
  void readReady(int fd);
  void closeConnection(int fd);
  /// Tear `fd` down, salvaging the queued frames for a retry. The
  /// partially-written head frame is salvaged whole: the close makes
  /// the peer discard its prefix, so a whole-frame resend stays
  /// exactly-once (and the abandonment counts as a partial-frame
  /// abort).
  std::deque<std::vector<std::uint8_t>> abortConnection(int fd);
  /// One gathered writev over the pending queue; nonblocking. Completed
  /// frames are counted in framesSent() as they leave.
  FlushResult flushOnce(Connection& conn);
  /// Flush a connection from the loop thread; arms/disarms EPOLLOUT and
  /// funnels a dead connection into the salvage-retry path.
  void flush(Connection& conn);
  /// Before-wait hook: flush every connection with frames queued since
  /// the last wait.
  void flushDirty();
  void onWritable(int fd);
  void armWrite(Connection& conn, bool enabled);
  void markDirty(Connection& conn);
  /// Append `frame` to the peer's connection, connecting first if
  /// needed; it leaves at the next flush.
  void enqueue(NodeId node, Peer& peer, std::vector<std::uint8_t> frame);
  /// Re-send frames to `node` on a fresh connection under the bounded
  /// backoff; frames still undeliverable count as failures.
  void retryFrames(NodeId node, std::deque<std::vector<std::uint8_t>> frames);
  int connectPeer(NodeId node, Peer& peer);
  void deliverLocal(const net::Message& msg);
  /// Sleep out the capped jittered exponential backoff before retry
  /// attempt `attempt` (1-based). clock_nanosleep against an absolute
  /// deadline: EINTR re-enters, so signals cannot shorten it.
  void backoffSleep(int attempt);
  /// Execute an injected truncation: flush the backlog, write the
  /// prefix, kill the connection; nothing here waits on the socket.
  void injectTruncation(NodeId node, Peer& peer,
                        const std::vector<std::uint8_t>& frame,
                        const SendFault& fault);

  RealTimeDriver& driver_;
  stats::Metrics& metrics_;
  Options options_;
  std::uint64_t jitterState_;
  FaultHook* faultHook_ = nullptr;
  int listenFd_ = -1;
  std::uint16_t listenPort_ = 0;
  std::unordered_map<NodeId, net::MessageSink*> sinks_;
  std::unordered_map<NodeId, Peer> peers_;
  std::unordered_map<int, Connection> connections_;
  std::vector<int> dirty_;  // fds with frames queued since the last flush
  std::int64_t framesSent_ = 0;
  std::int64_t framesReceived_ = 0;
  std::int64_t sendFailures_ = 0;
  std::int64_t sendRetries_ = 0;
  std::int64_t framesRejected_ = 0;
  std::int64_t partialFrameAborts_ = 0;
  std::int64_t reconnects_ = 0;
  std::int64_t connectRefusals_ = 0;
  std::int64_t injectedDrops_ = 0;
  std::int64_t injectedTruncations_ = 0;
};

}  // namespace vlease::rt
