// Unit tests for the daemon event-loop core (src/serve/daemon_core.h):
// FramedConn over a nonblocking socketpair, and ListenUnix/ConnectUnix
// against a real listener.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <vector>

#include "src/serve/client.h"
#include "src/serve/daemon_core.h"
#include "src/serve/protocol.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

/// Two connected nonblocking FramedConns.
void MakePair(FramedConn* a, FramedConn* b) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  a->Reset(fds[0]);
  b->Reset(fds[1]);
}

std::string FreshSocketPath(const std::string& leaf) {
  std::string path = "/tmp/fairem_core_" + leaf + "." +
                     std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  return path;
}

TEST(FramedConnTest, LargeFrameResumesAcrossPartialWritesByteIdentical) {
  FramedConn sender;
  FramedConn receiver;
  MakePair(&sender, &receiver);
  std::string payload(4u << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  sender.Queue(kFrameQueryResponse, payload);

  // Nobody reads yet: the socket fills and the rest stays pending.
  ASSERT_TRUE(sender.Flush());
  ASSERT_TRUE(sender.has_pending_out());
  const size_t first_chunk = sender.out_sent;
  EXPECT_GT(first_chunk, 0u);
  EXPECT_TRUE(sender.Flush());  // still full: no progress, no error
  EXPECT_EQ(sender.out_sent, first_chunk);

  // The peer drains a little at a time; every flush resumes where the
  // last partial write stopped.
  int partial_writes = 0;
  while (sender.has_pending_out()) {
    const size_t before = sender.out_sent;
    ASSERT_TRUE(receiver.ReadAvailable());
    ASSERT_TRUE(sender.Flush());
    if (!sender.has_pending_out()) break;
    ASSERT_GT(sender.out_sent, before);
    ++partial_writes;
  }
  EXPECT_GT(partial_writes, 1);
  EXPECT_EQ(sender.out_sent, 0u);  // a finished outbuf is recycled
  EXPECT_TRUE(sender.outbuf.empty());

  ASSERT_TRUE(receiver.ReadAvailable());
  ServeMessage message;
  Result<FrameDecoder::Next> next = receiver.decoder.TryNext(&message);
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, kFrameQueryResponse);
  EXPECT_TRUE(message.bytes == payload);
  EXPECT_EQ(receiver.decoder.buffered(), 0u);
}

TEST(FramedConnTest, PeerCloseIsDisconnectOnReadAndEpipeOnFlush) {
  IgnoreSigpipe();
  FramedConn a;
  FramedConn b;
  MakePair(&a, &b);
  // A frame sent just before the close still decodes: the read reports
  // the disconnect without losing what arrived first.
  b.Queue(kFrameQueryRequest, "last words");
  ASSERT_TRUE(b.Flush());
  b.Close();
  EXPECT_FALSE(b.open());
  EXPECT_FALSE(a.ReadAvailable());
  ServeMessage message;
  Result<FrameDecoder::Next> next = a.decoder.TryNext(&message);
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.bytes, "last words");

  a.Queue(kFrameQueryResponse, "nobody listens");
  errno = 0;
  EXPECT_FALSE(a.Flush());
  EXPECT_EQ(errno, EPIPE);
  EXPECT_TRUE(a.open());  // the owner decides when to close
}

TEST(FramedConnTest, CorruptHeaderSurfacesTheDecoderError) {
  FramedConn a;
  FramedConn b;
  MakePair(&a, &b);
  std::string wire = EncodeServeMessage(kFrameQueryRequest, "{}");
  wire[wire.size() - 4] = 'z';  // a non-hex digit inside the length field
  ASSERT_TRUE(WriteFull(b.fd, wire).ok());
  ASSERT_TRUE(a.ReadAvailable());
  ServeMessage message;
  Result<FrameDecoder::Next> next = a.decoder.TryNext(&message);
  EXPECT_FALSE(next.ok());
}

TEST(FramedConnTest, MoveTransfersTheDescriptor) {
  FramedConn a;
  FramedConn b;
  MakePair(&a, &b);
  const int fd = a.fd;
  FramedConn moved(std::move(a));
  EXPECT_FALSE(a.open());
  EXPECT_EQ(moved.fd, fd);
  std::vector<pollfd> fds;
  a.AddPollFd(&fds);
  EXPECT_TRUE(fds.empty());
  moved.Queue(kFrameHealth, "{}");
  moved.AddPollFd(&fds);
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(fds[0].events, POLLIN | POLLOUT);
}

TEST(ConnectUnixTest, UnavailableFastOnMissingPathAndFullBacklog) {
  const std::string missing = FreshSocketPath("missing");
  double start = MonotonicSeconds();
  Result<int> none = ConnectUnix(missing);
  EXPECT_TRUE(none.status().IsUnavailable()) << none.status();
  EXPECT_LT(MonotonicSeconds() - start, 1.0);

  // A listener that never accepts: connections pile up in its accept
  // queue until it is full, and the next connect must fail at once
  // instead of waiting for an accept that never comes.
  const std::string path = FreshSocketPath("full");
  Result<int> listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::vector<int> pending;
  Status refused = Status::OK();
  start = MonotonicSeconds();
  for (int i = 0; i < 1000 && refused.ok(); ++i) {
    Result<int> fd = ConnectUnix(path);
    if (fd.ok()) {
      pending.push_back(*fd);
    } else {
      refused = fd.status();
    }
  }
  EXPECT_TRUE(refused.IsUnavailable()) << refused;
  EXPECT_LT(MonotonicSeconds() - start, 1.0);
  EXPECT_GT(pending.size(), 0u);

  // The client honours its connect budget against the same full queue.
  ServeClientOptions options;
  options.connect_timeout_s = 0.2;
  start = MonotonicSeconds();
  Result<ServeClient> client = ServeClient::Connect(path, options);
  EXPECT_TRUE(client.status().IsUnavailable()) << client.status();
  EXPECT_LT(MonotonicSeconds() - start, 1.0);

  for (int fd : pending) ::close(fd);
  ::close(*listener);
  ::unlink(path.c_str());
}

TEST(ConnectUnixTest, PathLongerThanSunPathIsInvalidArgument) {
  const std::string too_long = "/tmp/" + std::string(200, 'x') + ".sock";
  EXPECT_EQ(ConnectUnix(too_long).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ListenUnix(too_long).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ConnectUnix("").status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairem
