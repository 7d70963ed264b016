/**
 * @file
 * Software IPC channels built on real kernel primitives — the top rows of
 * Table 2 (POSIX message queue, pipe, Unix socket). All of them pay a
 * system call per message, which is why the paper measures them at
 * hundreds of nanoseconds per send and why HQ-CFI-SfeStk-MQ only reaches
 * a 39% geometric-mean relative performance in Figure 3.
 */

#ifndef HQ_IPC_POSIX_CHANNELS_H
#define HQ_IPC_POSIX_CHANNELS_H

#include <mqueue.h>

#include <atomic>

#include "ipc/channel.h"

namespace hq {

/**
 * Receive side shared by the transports below. Their queue lives in the
 * kernel, so tryPeekSpan() lends a fixed local buffer instead, refilled
 * by non-blocking single-message reads once the previous view has been
 * fully consumed.
 */
class PosixChannel : public Channel
{
  public:
    PeekResult tryPeekSpan(RecvSpan &out) final;
    void consumeSlots(std::size_t count) final;
    /** Buffered-but-unconsumed plus still kernel-side messages. */
    std::size_t pending() const final;

  protected:
    /** One non-blocking read of a whole message; false when none. */
    virtual bool readOne(Message &out) = 0;
    /** Messages still queued kernel-side (approximate). */
    virtual std::size_t kernelPending() const = 0;

  private:
    static constexpr std::size_t kRecvBufferSlots = 64;

    Message _buffer[kRecvBufferSlots];
    std::size_t _head = 0; //!< first unconsumed slot (receiver-only)
    /// Unconsumed slots from _head; atomic because pending() may be
    /// sampled from another thread (health watchdog).
    std::atomic<std::size_t> _buffered{0};
};

/** POSIX message queue (mq_open/mq_send/mq_receive) — the "-MQ" variant. */
class MqChannel : public PosixChannel
{
  public:
    explicit MqChannel(std::size_t capacity);
    ~MqChannel() override;

    /** True when the host supports POSIX message queues. */
    static bool supported();

    Status sendImpl(const Message &message) override;
    const ChannelTraits &traits() const override { return _traits; }

  protected:
    bool readOne(Message &out) override;
    std::size_t kernelPending() const override;

  private:
    mqd_t _send_queue = static_cast<mqd_t>(-1);
    mqd_t _recv_queue = static_cast<mqd_t>(-1);
    std::string _queue_name;
    ChannelTraits _traits;
};

/** Anonymous pipe (write/read); 32-byte messages are atomic (< PIPE_BUF). */
class PipeChannel : public PosixChannel
{
  public:
    PipeChannel();
    ~PipeChannel() override;

    Status sendImpl(const Message &message) override;
    const ChannelTraits &traits() const override { return _traits; }

  protected:
    bool readOne(Message &out) override;
    std::size_t kernelPending() const override;

  private:
    int _read_fd = -1;
    int _write_fd = -1;
    ChannelTraits _traits;
};

/** Unix datagram socket pair (sendto/recvfrom). */
class SocketChannel : public PosixChannel
{
  public:
    SocketChannel();
    ~SocketChannel() override;

    Status sendImpl(const Message &message) override;
    const ChannelTraits &traits() const override { return _traits; }

  protected:
    bool readOne(Message &out) override;
    std::size_t kernelPending() const override;

  private:
    int _send_fd = -1;
    int _recv_fd = -1;
    /// Datagrams sent minus datagrams received; both ends live here.
    std::atomic<std::size_t> _in_flight{0};
    ChannelTraits _traits;
};

} // namespace hq

#endif // HQ_IPC_POSIX_CHANNELS_H
