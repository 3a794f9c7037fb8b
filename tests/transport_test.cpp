#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "transport/sim_stream.h"
#include "transport/tcp.h"
#include "util/metrics.h"
#include "wire/tunnel.h"

namespace rnl::transport {
namespace {

TEST(SimStream, DeliversInOrderWithDelay) {
  simnet::Scheduler sched(1);
  SimStreamOptions options;
  options.wan.delay = util::Duration::milliseconds(25);
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  util::SimTime first_arrival{};
  b->set_receive_handler([&](util::BytesView chunk) {
    if (received.empty()) first_arrival = sched.now();
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  util::Bytes m1{1, 2};
  util::Bytes m2{3};
  a->send(m1);
  a->send(m2);
  sched.run_all();
  EXPECT_EQ(received, (util::Bytes{1, 2, 3}));
  EXPECT_EQ(first_arrival.nanos, 25'000'000);
}

TEST(SimStream, LossBecomesRetransmitDelayNotCorruption) {
  simnet::Scheduler sched(2);
  SimStreamOptions options;
  options.wan.loss_probability = 0.2;
  options.wan.delay = util::Duration::milliseconds(10);
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  util::Bytes expected;
  for (std::uint8_t i = 0; i < 200; ++i) {
    util::Bytes chunk{i};
    expected.push_back(i);
    a->send(chunk);
  }
  sched.run_all();
  // TCP semantics: every byte arrives, in order, despite "loss".
  EXPECT_EQ(received, expected);
}

TEST(SimStream, BuffersUntilHandlerInstalled) {
  simnet::Scheduler sched(3);
  auto [a, b] = make_sim_stream_pair(sched);
  util::Bytes data{1, 2, 3};
  a->send(data);
  sched.run_all();
  util::Bytes received;
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  EXPECT_EQ(received, data);
}

TEST(SimStream, CloseNotifiesBothEnds) {
  simnet::Scheduler sched(4);
  auto [a, b] = make_sim_stream_pair(sched);
  bool a_closed = false;
  bool b_closed = false;
  a->set_close_handler([&] { a_closed = true; });
  b->set_close_handler([&] { b_closed = true; });
  a->close();
  // The closing end knows immediately; the peer learns through the
  // scheduler, after any bytes written before the close (FIN semantics).
  EXPECT_TRUE(a_closed);
  EXPECT_FALSE(b_closed);
  EXPECT_FALSE(a->is_open());
  EXPECT_FALSE(b->is_open());
  sched.run_all();
  EXPECT_TRUE(b_closed);
  // Sends after close are dropped silently.
  util::Bytes data{1};
  a->send(data);
  sched.run_all();
}

TEST(SimStream, CloseFlushesInFlightBytesBeforePeerEof) {
  simnet::Scheduler sched(11);
  SimStreamOptions options;
  options.wan.delay = util::Duration::milliseconds(25);
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  bool b_closed = false;
  bool eof_after_data = false;
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  b->set_close_handler([&] {
    b_closed = true;
    eof_after_data = received.size() == 3;
  });
  util::Bytes data{7, 8, 9};
  a->send(data);
  a->close();  // immediately after the send: the bytes are still in the WAN
  sched.run_all();
  EXPECT_EQ(received, data);
  EXPECT_TRUE(b_closed);
  EXPECT_TRUE(eof_after_data);  // data first, then EOF — TCP ordering
}

TEST(SimStream, LinkFaultCutDropsInFlightAndClosesBothEnds) {
  simnet::Scheduler sched(12);
  SimLinkFault fault;
  SimStreamOptions options;
  options.wan.delay = util::Duration::milliseconds(25);
  options.fault = &fault;
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  bool a_closed = false;
  bool b_closed = false;
  a->set_close_handler([&] { a_closed = true; });
  b->set_close_handler([&] { b_closed = true; });
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  util::Bytes data{1, 2, 3};
  a->send(data);
  ASSERT_TRUE(fault.connected());
  fault.cut();  // the path dies with the bytes still in flight
  EXPECT_TRUE(a_closed);  // both ends see the failure, unlike close()
  EXPECT_TRUE(b_closed);
  EXPECT_FALSE(fault.connected());
  EXPECT_EQ(fault.cuts(), 1u);
  sched.run_all();
  EXPECT_TRUE(received.empty());  // a severed link loses in-flight chunks
  fault.cut();  // idempotent on a dead link
  EXPECT_EQ(fault.cuts(), 1u);
}

TEST(SimStream, InFlightBytesSurviveEndDestructionGracefully) {
  simnet::Scheduler sched(5);
  auto [a, b] = make_sim_stream_pair(sched);
  util::Bytes data{1};
  a->send(data);
  b.reset();  // destination destroyed with bytes in flight
  sched.run_all();  // must not crash
  a->send(data);
  sched.run_all();
}

TEST(SimStream, ChunksInFlightGaugeReconciledOnTeardownMidFlight) {
  // Regression: tearing both ends down with deliveries still scheduled used
  // to leak the chunks_in_flight gauge — the scheduled lambdas hold only
  // weak references, so their decrement never ran. The shared state now
  // reconciles the gauge in its destructor.
  util::MetricsRegistry registry;
  util::Gauge& in_flight = registry.gauge("transport.chunks_in_flight");
  simnet::Scheduler sched(13);
  SimStreamOptions options;
  options.metrics = &registry;
  options.wan.delay = util::Duration::milliseconds(25);
  {
    auto [a, b] = make_sim_stream_pair(sched, options);
    util::Bytes data{1, 2, 3};
    a->send(data);
    b->send(data);
    EXPECT_EQ(in_flight.value(), 2);
  }  // both ends destroyed while both chunks are still in the WAN
  EXPECT_EQ(in_flight.value(), 0);
  sched.run_all();  // the orphaned delivery events must not double-count
  EXPECT_EQ(in_flight.value(), 0);
}

TEST(SimStream, EgressWatermarksBackpressureWithHysteresis) {
  simnet::Scheduler sched(14);
  SimStreamOptions options;
  options.wan.delay = util::Duration::milliseconds(10);
  auto [a, b] = make_sim_stream_pair(sched, options);
  b->set_receive_handler([](util::BytesView) {});
  int drains = 0;
  a->set_drain_handler([&] { ++drains; });
  EXPECT_TRUE(a->writable());  // watermarks default off
  a->set_egress_watermarks(100, 40);

  util::Bytes chunk(30, 0x11);
  a->send(chunk);
  a->send(chunk);
  a->send(chunk);
  EXPECT_EQ(a->queued_bytes(), 90u);
  EXPECT_TRUE(a->writable());  // below the high watermark
  a->send(chunk);
  EXPECT_EQ(a->queued_bytes(), 120u);
  EXPECT_FALSE(a->writable());  // crossed it
  EXPECT_EQ(drains, 0);

  // Hysteresis: the drain handler fires exactly once, when the queue falls
  // to the low watermark — not once per delivered chunk.
  sched.run_all();
  EXPECT_EQ(a->queued_bytes(), 0u);
  EXPECT_TRUE(a->writable());
  EXPECT_EQ(drains, 1);

  // The cycle re-arms: crossing high again backpressures again.
  a->send(util::Bytes(120, 0x22));
  EXPECT_FALSE(a->writable());
  sched.run_all();
  EXPECT_TRUE(a->writable());
  EXPECT_EQ(drains, 2);
}

TEST(SimStream, LinkStallParksChunksAndResumeFlushesInOrder) {
  simnet::Scheduler sched(15);
  SimLinkFault fault;
  SimStreamOptions options;
  options.fault = &fault;
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  fault.stall(/*toward_a=*/false, /*toward_b=*/true);
  util::Bytes m1{1, 2};
  util::Bytes m2{3};
  a->send(m1);
  a->send(m2);
  sched.run_all();
  // Zero-window peer: nothing delivers, but the bytes still count as queued
  // (they occupy server memory) and the link is still up.
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(a->queued_bytes(), 3u);
  EXPECT_TRUE(fault.connected());
  fault.resume();
  EXPECT_EQ(received, (util::Bytes{1, 2, 3}));  // flushed, stream order kept
  EXPECT_EQ(a->queued_bytes(), 0u);
}

TEST(SimStream, CutWhileStalledDropsParkedChunksWithAccounting) {
  util::MetricsRegistry registry;
  util::Gauge& in_flight = registry.gauge("transport.chunks_in_flight");
  simnet::Scheduler sched(16);
  SimLinkFault fault;
  SimStreamOptions options;
  options.fault = &fault;
  options.metrics = &registry;
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  fault.stall(/*toward_a=*/false, /*toward_b=*/true);
  a->send(util::Bytes(64, 0xAB));
  sched.run_all();  // the chunk arrives at the stall and parks
  EXPECT_EQ(a->queued_bytes(), 64u);
  EXPECT_EQ(in_flight.value(), 1);
  fault.cut();  // parked chunks die with the path, like in-flight ones
  EXPECT_EQ(a->queued_bytes(), 0u);
  EXPECT_EQ(in_flight.value(), 0);
  sched.run_all();
  EXPECT_TRUE(received.empty());
}

TEST(SimStream, CoalescedSendWatermarkAccountingCountsBytesOnce) {
  // A coalesced egress write (many tunnel frames in one send) must be
  // accounted as ONE chunk whose bytes enter queued_bytes() once — not once
  // per contained frame — and must reconcile exactly once whether it drains
  // normally or the link is cut with the batch still in flight.
  util::MetricsRegistry registry;
  util::Gauge& in_flight = registry.gauge("transport.chunks_in_flight");
  util::Counter& sends = registry.counter("transport.sends");
  simnet::Scheduler sched(17);
  SimLinkFault fault;
  SimStreamOptions options;
  options.fault = &fault;
  options.metrics = &registry;
  options.wan.delay = util::Duration::milliseconds(10);
  auto [a, b] = make_sim_stream_pair(sched, options);
  util::Bytes received;
  b->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  a->set_egress_watermarks(200, 50);

  // Three 30-byte frames coalesced into one 90-byte batch.
  util::Bytes batch;
  for (int frame = 0; frame < 3; ++frame) {
    util::Bytes one(30, static_cast<std::uint8_t>(0x40 + frame));
    batch.insert(batch.end(), one.begin(), one.end());
  }
  a->send(batch);
  EXPECT_EQ(sends.value(), 1u);
  EXPECT_EQ(a->queued_bytes(), 90u);  // bytes counted once, not 3 x 90
  EXPECT_EQ(in_flight.value(), 1);    // one chunk, not one per frame
  EXPECT_TRUE(a->writable());         // 90 < high watermark of 200

  sched.run_all();
  EXPECT_EQ(received.size(), 90u);
  EXPECT_EQ(a->queued_bytes(), 0u);  // reconciled exactly once on delivery
  EXPECT_EQ(in_flight.value(), 0);

  // Mid-flight teardown: a second batch dies with the link. Its bytes must
  // leave the accounting exactly once (no residue, no double-decrement).
  a->send(batch);
  EXPECT_EQ(sends.value(), 2u);
  EXPECT_EQ(a->queued_bytes(), 90u);
  EXPECT_EQ(in_flight.value(), 1);
  fault.cut();
  EXPECT_EQ(a->queued_bytes(), 0u);
  EXPECT_EQ(in_flight.value(), 0);
  sched.run_all();
  EXPECT_EQ(received.size(), 90u);  // the dropped batch never arrived
}

TEST(TcpLoopback, EchoRoundTrip) {
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  auto status = listener.listen(0, [&](std::unique_ptr<TcpTransport> t) {
    server_side = std::move(t);
    server_side->set_receive_handler([&](util::BytesView chunk) {
      server_side->send(chunk);  // echo
    });
  });
  ASSERT_TRUE(status.ok()) << status.error();
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok()) << client.error();
  util::Bytes received;
  (*client)->set_receive_handler([&](util::BytesView chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
  });
  util::Bytes message(1000, 0xAB);
  (*client)->send(message);
  ASSERT_TRUE(loop.run_until([&] { return received.size() == 1000; }));
  EXPECT_EQ(received, message);
}

TEST(TcpLoopback, TunnelMessagesSurviveRealSockets) {
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  wire::MessageDecoder server_decoder;
  std::vector<wire::TunnelMessage> server_got;
  auto status = listener.listen(0, [&](std::unique_ptr<TcpTransport> t) {
    server_side = std::move(t);
    server_side->set_receive_handler([&](util::BytesView chunk) {
      for (auto& decoded : server_decoder.feed(chunk)) {
        server_got.push_back(std::move(decoded.message));
      }
    });
  });
  ASSERT_TRUE(status.ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());

  std::vector<wire::TunnelMessage> sent;
  for (int i = 0; i < 50; ++i) {
    wire::TunnelMessage msg;
    msg.type = wire::MessageType::kData;
    msg.router_id = static_cast<wire::RouterId>(i);
    msg.port_id = static_cast<wire::PortId>(i * 2);
    msg.payload.assign(static_cast<std::size_t>(17 * i % 400), 0xC3);
    sent.push_back(msg);
    util::Bytes wire_bytes = wire::encode_message(msg);
    (*client)->send(wire_bytes);
  }
  ASSERT_TRUE(loop.run_until([&] { return server_got.size() == sent.size(); }));
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(server_got[i], sent[i]);
  }
}

TEST(TcpLoopback, PeerCloseDetected) {
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  ASSERT_TRUE(listener
                  .listen(0, [&](std::unique_ptr<TcpTransport> t) {
                    server_side = std::move(t);
                  })
                  .ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(loop.run_until([&] { return server_side != nullptr; }));
  bool closed = false;
  server_side->set_close_handler([&] { closed = true; });
  server_side->set_receive_handler([](util::BytesView) {});
  (*client)->close();
  ASSERT_TRUE(loop.run_until([&] { return closed; }));
  EXPECT_FALSE(server_side->is_open());
}

TEST(TcpLoopback, FullReadsContinueWithinOneRunOnce) {
  // on_readable stops after a read shorter than its 16 KiB buffer (the
  // kernel queue was empty) but keeps reading after a full one: a 40 KiB
  // burst already queued is delivered whole by a single run_once.
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  std::vector<std::size_t> chunks;
  ASSERT_TRUE(listener
                  .listen(0, [&](std::unique_ptr<TcpTransport> t) {
                    server_side = std::move(t);
                    server_side->set_receive_handler(
                        [&](util::BytesView chunk) {
                          chunks.push_back(chunk.size());
                        });
                  })
                  .ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(loop.run_until([&] { return server_side != nullptr; }));

  const util::Bytes burst(40 * 1024, 0x5C);
  (*client)->send(burst);
  ASSERT_EQ((*client)->queued_bytes(), 0u);  // the kernel took all of it
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.run_once(1000);
  std::size_t received = 0;
  for (std::size_t chunk : chunks) received += chunk;
  EXPECT_EQ(received, burst.size());
  EXPECT_GE(chunks.size(), 3u);  // at most 16 KiB per read
}

TEST(TcpLoopback, BytesThenCloseArriveWithinTwoRunOnceCalls) {
  // A short read ends the read loop, so a FIN queued behind the bytes is
  // not seen in the same round; level-triggered poll() reports it on the
  // next. The receiver gets the bytes first, then the close.
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  std::vector<std::string> events;
  ASSERT_TRUE(listener
                  .listen(0, [&](std::unique_ptr<TcpTransport> t) {
                    server_side = std::move(t);
                  })
                  .ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(loop.run_until([&] { return server_side != nullptr; }));
  std::size_t received = 0;
  server_side->set_receive_handler([&](util::BytesView chunk) {
    received += chunk.size();
    events.emplace_back("data");
  });
  server_side->set_close_handler([&] { events.emplace_back("close"); });

  (*client)->send(util::Bytes(100, 0x77));
  (*client)->close();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  loop.run_once(1000);
  if (server_side->is_open()) loop.run_once(1000);
  EXPECT_FALSE(server_side->is_open());
  EXPECT_EQ(received, 100u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front(), "data");
  EXPECT_EQ(events.back(), "close");
}

TEST(TcpLoopback, RunOncePollRetriesOnEintr) {
  // A signal interrupting poll() must not be treated as "nothing ready":
  // run_once keeps waiting out its budget and still dispatches the data
  // that arrives mid-wait. A pinger thread peppers this thread with
  // SIGUSR1 (installed without SA_RESTART so poll really returns EINTR)
  // while a second thread writes to the socket ~100 ms into the wait.
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll() must see EINTR
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  std::size_t server_received = 0;
  ASSERT_TRUE(listener
                  .listen(0, [&](std::unique_ptr<TcpTransport> t) {
                    server_side = std::move(t);
                    server_side->set_receive_handler(
                        [&](util::BytesView chunk) {
                          server_received += chunk.size();
                        });
                  })
                  .ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(loop.run_until([&] { return server_side != nullptr; }));

  std::atomic<bool> stop{false};
  pthread_t poller = pthread_self();
  std::thread pinger([&] {
    while (!stop.load()) {
      pthread_kill(poller, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    util::Bytes data{42};
    (*client)->send(data);
  });

  // One long poll: the signals land well before the write. Pre-fix, the
  // first EINTR made run_once return 0 and the data went unread; post-fix
  // the wait is restarted and the byte is dispatched within this call or
  // the short drain loop below.
  loop.run_once(2000);
  for (int i = 0; i < 100 && server_received == 0; ++i) loop.run_once(10);
  stop.store(true);
  pinger.join();
  writer.join();
  EXPECT_EQ(server_received, 1u);
  EXPECT_EQ(loop.last_poll_errno(), 0);  // EINTR is not surfaced as an error
  sigaction(SIGUSR1, &previous, nullptr);
}

TEST(TcpLoopback, LargeWriteBuffersAndDrains) {
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  std::size_t server_received = 0;
  ASSERT_TRUE(listener
                  .listen(0, [&](std::unique_ptr<TcpTransport> t) {
                    server_side = std::move(t);
                    server_side->set_receive_handler(
                        [&](util::BytesView chunk) {
                          server_received += chunk.size();
                        });
                  })
                  .ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());
  // 8 MiB: guaranteed to overflow socket buffers and exercise POLLOUT.
  util::Bytes big(8 * 1024 * 1024, 0x7E);
  (*client)->send(big);
  ASSERT_TRUE(loop.run_until([&] { return server_received == big.size(); },
                             100'000, 10));
}

TEST(TcpLoopback, EgressWatermarksTrackTheWriteBuffer) {
  TcpEventLoop loop;
  TcpListener listener(loop);
  std::unique_ptr<TcpTransport> server_side;
  std::size_t server_received = 0;
  ASSERT_TRUE(listener
                  .listen(0, [&](std::unique_ptr<TcpTransport> t) {
                    server_side = std::move(t);
                    server_side->set_receive_handler(
                        [&](util::BytesView chunk) {
                          server_received += chunk.size();
                        });
                  })
                  .ok());
  auto client = tcp_connect(loop, listener.port());
  ASSERT_TRUE(client.ok());
  int drains = 0;
  (*client)->set_egress_watermarks(64 * 1024, 16 * 1024);
  (*client)->set_drain_handler([&] { ++drains; });
  EXPECT_TRUE((*client)->writable());
  EXPECT_EQ((*client)->queued_bytes(), 0u);
  // 8 MiB cannot fit in the socket send buffer: the remainder lands in the
  // userspace write buffer, which is what queued_bytes() reports.
  util::Bytes big(8 * 1024 * 1024, 0x5A);
  (*client)->send(big);
  EXPECT_GT((*client)->queued_bytes(), 64u * 1024);
  EXPECT_FALSE((*client)->writable());
  EXPECT_EQ(drains, 0);
  ASSERT_TRUE(loop.run_until([&] { return server_received == big.size(); },
                             100'000, 10));
  // POLLOUT drained the buffer past the low watermark: writable again, and
  // the drain handler fired exactly once for the whole episode.
  EXPECT_EQ((*client)->queued_bytes(), 0u);
  EXPECT_TRUE((*client)->writable());
  EXPECT_EQ(drains, 1);
}

TEST(TcpLoopback, ConnectToClosedPortFails) {
  TcpEventLoop loop;
  // Grab an ephemeral port then close it.
  std::uint16_t dead_port;
  {
    TcpListener listener(loop);
    ASSERT_TRUE(listener.listen(0, nullptr).ok());
    dead_port = listener.port();
  }
  auto client = tcp_connect(loop, dead_port);
  EXPECT_FALSE(client.ok());
}

}  // namespace
}  // namespace rnl::transport
